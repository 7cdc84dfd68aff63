package mfdl_test

// Static gates over the module's own source, written with the standard
// library alone: `go list -deps -export` gives the import graph and the
// standard library's export data, and go/parser + go/types check every
// package from source. Five gates run in tier-1:
//
//   - TestGateImportDAG fails on an import that points up the tier list,
//     or breaks one of the rows in importRows;
//   - TestGateDeadCode fails on a top-level func, method, type, var or
//     const under internal/ that no non-test code reaches, unless deadAllow
//     lists it with its reason. An allowlist entry that is reached again,
//     or no longer exists, fails too, so the list only shrinks;
//   - TestGateFlagDocs fails when README's command-line reference and the
//     flags the commands register disagree, or README names a flag no
//     command has;
//   - TestGateGofmt fails on a .go file, benchmark/ included, that
//     go/format would rewrite — what `gofmt -l .` lists;
//   - TestGateGoldens fails when testdata/GOLDENS and the golden files
//     disagree: a file's sha256 moved while every schema constant on its
//     line kept its value, a file under a testdata/ directory is unlisted,
//     or a line names a constant no package declares. Under -update
//     (make regolden) it rewrites the manifest, unless one of these holds.
//
// `go test -run Gate -v .` (make gates) prints the allowlist with its
// reasons: it is the queue for the next deletion.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/format"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"mfdl/internal/golden"
)

// A tier is one rung of the import DAG. A package may import packages of
// its own tier and of the tiers below it, never above. Patterns are
// module-relative directories; "x/..." covers x and everything below it,
// and the longest matching pattern decides a package's tier.
type tier struct {
	name string
	pkgs []string
}

// importTiers runs bottom to top. The BitTorrent stack sits just below the
// binaries, so only cmd/ and examples/ reach it; its own row in importRows
// keeps it from reaching into the rest.
var importTiers = []tier{
	{"leaf", []string{"internal/numeric/...", "internal/rng", "internal/stats", "internal/obs",
		"internal/adapt", "internal/faults", "internal/trace", "internal/table", "internal/golden"}},
	{"model", []string{"internal/fluid", "internal/correlation", "internal/mtcd", "internal/mtsd",
		"internal/cmfsd", "internal/scheme", "internal/metrics"}},
	{"contract", []string{"internal/replica"}},
	{"backends", []string{"internal/eventsim", "internal/swarm"}},
	{"engine", []string{"internal/runner/..."}},
	{"sim", []string{"internal/sim"}},
	{"fabric", []string{"internal/fabric/..."}},
	{"experiments", []string{"internal/experiments"}},
	{"bittorrent codec", []string{"internal/bencode"}},
	{"bittorrent metainfo", []string{"internal/metainfo"}},
	{"bittorrent transport", []string{"internal/wire", "internal/storage"}},
	{"bittorrent peers", []string{"internal/client", "internal/tracker"}},
	{"bittorrent tracker", []string{"cmd/trackerd"}},
	{"top", []string{"internal/gridflag", "cmd/...", "examples/...", "scripts/...", "."}},
}

var bittorrentStack = []string{"internal/bencode", "internal/metainfo", "internal/wire",
	"internal/storage", "internal/client", "internal/tracker", "cmd/trackerd"}

// An importRow narrows what some packages may import beyond the tier rule:
// only lists every repository package they may import directly, and never
// lists packages they must not depend on even indirectly.
type importRow struct {
	name  string
	from  []string
	only  []string
	never []string
}

var importRows = []importRow{
	// The simulator contract sits on rng and stats alone.
	{name: "contract", from: []string{"internal/replica"},
		only: []string{"internal/rng", "internal/stats"}},
	// A backend links neither the job layer nor the replica engine.
	{name: "backends_are_leaves", from: []string{"internal/eventsim", "internal/swarm"},
		never: []string{"internal/runner/...", "internal/sim"}},
	// The BitTorrent stack is an island: it may use rng and obs, nothing else.
	{name: "bittorrent_island", from: bittorrentStack,
		only: append([]string{"internal/rng", "internal/obs"}, bittorrentStack...)},
}

// Why a declaration that no non-test code reaches may stay. There are no
// other reasons: code only its own tests use is deleted with them, and
// moving it into a _test.go file is not a deletion.
const (
	oracle = "(a)" // reference or oracle: a test of other live code compares against it
	seam   = "(b)" // test seam: a test of live code needs it
)

// An allowed entry names a declaration the dead-code gate tolerates.
// Names read pkg.Func, pkg.Type, pkg.(*Type).Method or pkg.Type.Method,
// with pkg the directory under internal/.
type allowed struct {
	name, reason, note string
}

var deadAllow = []allowed{
	{"numeric/ode.DOPRI", oracle, "cmfsd's invariants test checks the RK4 path of Eq. (5) against it"},
	{"numeric/ode.Integrate", oracle, "RK4's accuracy and convergence-order tests integrate through it"},
	{"numeric/linalg.(*LU).Det", oracle, "the eigenvalue determinant property compares the product of eigenvalues with it"},
	{"numeric/linalg.(*Matrix).MulVec", oracle, "LU's residual property multiplies the solution back through it"},
	{"numeric/linalg.FromRows", oracle, "the LU and eigenvalue tests build their matrices with it"},
	{"numeric/rootfind.Bisect", oracle, "Brent's property test compares its roots with bisection's"},
	{"stats.BinomialCoeff", oracle, "BinomialPMF's test compares it with the coefficient form"},
	{"stats.(*Summary).Min", oracle, "the Summary merge tests and replica's Reduce test read extrema through it"},
	{"stats.(*Summary).Max", oracle, "the Summary merge tests and replica's Reduce test read extrema through it"},
	{"obs.(*Histogram).Count", oracle, "the obs and tracker tests read a histogram's sample count through it"},
	{"trace.(*Series).Final", oracle, "Transient's and the swarm's tests read a series' last value through it"},
	{"fluid.Residual", oracle, "the cmfsd and mtcd tests check fixed points with it"},
	{"fluid.(*SingleTorrent).SteadyStateClosed", oracle, "fluid's tests check the relaxed fixed point of Eq. (3) against it"},
	{"cmfsd.(*Model).SteadyStateRelaxed", oracle, "cmfsd's invariants test checks the hybrid solve against pure relaxation"},
	{"mtcd.(*Model).SteadyStateODE", oracle, "mtcd's test checks the Eq. (2) closed form against relaxation of Eq. (1)"},
	{"eventsim.(*sim).populations", oracle, "the heap tests check the incremental leg counters against this scan"},
	{"runner.CellStream", oracle, "the pool tests check Run's cell streams against it"},
	{"runner/diskcache.(*SampleStore).Len", oracle, "the fabric's sample-reuse test counts a cell's stored samples with it"},
	{"fabric/chaos.(*Plan).SetClock", seam, "the blackout test drives the plan's clock"},
	{"fabric.(*Coordinator).ObserveCellSeconds", seam, "the lease-sizing tests feed cell timings through it"},
	{"golden.Check", seam, "every golden test compares, and under -update writes, its file through it"},
}

func TestGateImportDAG(t *testing.T) {
	p := loadRepo(t)
	for _, problem := range importProblems(p.imports, importTiers, importRows) {
		t.Error(problem)
	}
	for i, tr := range importTiers {
		t.Logf("tier %2d %-20s %s", i, tr.name, strings.Join(tr.pkgs, " "))
	}
}

func TestGateDeadCode(t *testing.T) {
	p := loadRepo(t)
	problems, kept, keptLines := deadProblems(p, deadAllow)
	for _, problem := range problems {
		t.Error(problem)
	}
	t.Logf("allowlist: %d entries keep %d lines alive, doc comments included; (a) reference or oracle, (b) test seam", len(deadAllow), keptLines)
	for i, a := range deadAllow {
		lines := 0
		if kept[i] != nil {
			lines = kept[i].lines
		}
		t.Logf("  %s %-42s %3d  %s", a.reason, a.name, lines, a.note)
	}
}

func TestGateGofmt(t *testing.T) {
	problems, err := gofmtProblems(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range problems {
		t.Error(problem)
	}
}

// gofmtProblems names every .go file under root, outside dot directories,
// whose bytes differ from go/format.Source's rendering of them.
func gofmtProblems(root string) ([]string, error) {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		out, err := format.Source(src)
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("%s does not parse: %v", filepath.ToSlash(rel), err))
		case !bytes.Equal(out, src):
			problems = append(problems, filepath.ToSlash(rel)+" is not gofmt-formatted; run gofmt -w")
		}
		return nil
	})
	return problems, err
}

// goldensPath is the golden manifest, relative to the module root.
const goldensPath = "testdata/GOLDENS"

const goldensHeader = `# Every golden file under a testdata/ directory: its path, its sha256, and
# the schema constants (pkg.Name=value) whose bump makes results stored from
# its old bytes miss, or none. make regolden rewrites it; DESIGN.md §10b.
`

// goldenExempt reports the testdata files that are no test's output: the
// manifest, fuzz corpora, and diskcache's fixtures, which pin bytes earlier
// builds wrote and are never regenerated.
func goldenExempt(rel string) bool {
	return rel == goldensPath || strings.Contains(rel, "testdata/fuzz/") ||
		strings.HasPrefix(rel, "internal/runner/diskcache/testdata/parent/")
}

func TestGateGoldens(t *testing.T) {
	problems, manifest, err := goldenProblems(loadRepo(t), ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range problems {
		t.Error(problem)
	}
	if len(problems) == 0 {
		golden.Check(t, goldensPath, manifest)
	}
}

// goldenProblems checks the manifest under root against the files there
// and the constants p declares, named pkg.Name with pkg the directory
// under internal/. It returns one problem per file whose hash moved while
// every constant on its line kept its recorded value, per listed file that
// is gone, per named constant p lacks, and per file under a testdata/
// directory the manifest does not list; and the manifest rendered from
// today's hashes and values.
func goldenProblems(p *program, root string) (problems []string, manifest string, err error) {
	data, err := os.ReadFile(filepath.Join(root, goldensPath))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, "", err
	}
	consts := map[string]string{}
	for _, c := range p.pkgs {
		if pkg, ok := strings.CutPrefix(c.rel, "internal/"); ok {
			for _, name := range c.types.Scope().Names() {
				if k, ok := c.types.Scope().Lookup(name).(*types.Const); ok {
					consts[pkg+"."+name] = k.Val().ExactString()
				}
			}
		}
	}
	listed := map[string]bool{}
	var lines []string
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 3 {
			problems = append(problems, fmt.Sprintf("%s: %q is not \"path sha256 pkg.Name=value ...\" or \"path sha256 none\"", goldensPath, line))
			continue
		}
		path, recorded, covers := fields[0], fields[1], fields[2:]
		listed[path] = true
		content, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(path)))
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s lists %s: %v", goldensPath, path, err))
			continue
		}
		if covers[0] == "none" {
			covers = nil
		}
		now, kept, names := []string{}, 0, []string{}
		for _, c := range covers {
			name, value, _ := strings.Cut(c, "=")
			v, ok := consts[name]
			if !ok {
				problems = append(problems, fmt.Sprintf("%s names %s for %s, and no package declares that constant", goldensPath, name, path))
				continue
			}
			now, names = append(now, name+"="+v), append(names, name)
			if v == value {
				kept++
			}
		}
		sum := fmt.Sprintf("%x", sha256.Sum256(content))
		if sum != recorded && len(covers) > 0 && kept == len(covers) {
			problems = append(problems, fmt.Sprintf("%s changed with no schema bump (%s as recorded): bump %s, or restore the file",
				path, strings.Join(covers, " "), strings.Join(names, " or ")))
		}
		if len(now) == 0 {
			now = []string{"none"}
		}
		lines = append(lines, path+" "+sum+" "+strings.Join(now, " ")+"\n")
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		inTestdata := strings.HasPrefix(rel, "testdata/") || strings.Contains(rel, "/testdata/")
		if !d.IsDir() && inTestdata && !goldenExempt(rel) && !listed[rel] {
			problems = append(problems, fmt.Sprintf("%s is in no line of %s: add it with the schema constant that covers it, or none", rel, goldensPath))
		}
		return nil
	})
	sort.Strings(problems)
	sort.Strings(lines)
	return problems, goldensHeader + strings.Join(lines, ""), err
}

// synthModule is a small module the code gates pass on: an enumerator no one
// names, methods reached only through fmt.Stringer and an interface
// literal, and a helper reached only from an allowlisted function.
var synthModule = map[string]string{
	"go.mod": "module synth\n\ngo 1.22\n",
	"main.go": `package main

import (
	"fmt"

	"synth/internal/high"
	"synth/internal/low"
)

func main() {
	var s interface{ Size() int } = low.New()
	fmt.Println(low.New(), s.Size(), low.B, high.Run())
}
`,
	"internal/low/low.go": `package low

type Kind int

const (
	A Kind = iota
	B
	C
)

type T struct{ n int }

func New() T { return T{n: int(A)} }

func (t T) String() string { return "t" }

func (t T) Size() int { return t.n }

func Kept() int { return helper() }

func helper() int { return 1 }
`,
	"internal/high/high.go": "package high\n\nfunc Run() int { return 2 }\n",
}

// TestGateSeededViolations shows each gate failing: every case adds one
// violation to synthModule, to a golden tree beside it, or to a
// one-command README, and the gates must report exactly what it breaks.
// The gofmt gate runs on every synthModule case, so the clean module is
// gofmt-formatted too.
func TestGateSeededViolations(t *testing.T) {
	tiers := []tier{{"low", []string{"internal/low"}}, {"high", []string{"internal/high"}}, {"top", []string{"."}}}
	rows := []importRow{{name: "low_stays_low", from: []string{"internal/low"}, never: []string{"internal/high"}}}
	allow := []allowed{{"low.Kept", oracle, "kept for the test"}}
	for _, c := range []struct {
		name  string
		file  string // added to internal/low
		allow []allowed
		want  []string // one substring per problem reported, in order
	}{
		{name: "clean"},
		{name: "upward_edge", file: "import \"synth/internal/high\"\n\nvar _ = high.Run\n", want: []string{
			"internal/low (tier low) imports internal/high (tier high): an upward edge",
			"internal/low depends on internal/high (imported by internal/low); row low_stays_low forbids it"}},
		{name: "unused_func", file: "func Unused() {}\n", want: []string{"low.Unused (1 lines) is reached by no non-test code"}},
		{name: "unused_method", file: "func (*T) Unused() {}\n", want: []string{"low.(*T).Unused (1 lines) is reached by no non-test code"}},
		{name: "stale_entry", allow: []allowed{{"low.New", oracle, "live"}}, want: []string{"allowlist entry low.New is reached by non-test code"}},
		{name: "missing_entry", allow: []allowed{{"low.Gone", oracle, "deleted"}}, want: []string{"allowlist entry low.Gone names no declaration"}},
		{name: "gofmt", file: "type pair struct {\n\ta int // misaligned\n\tbcde string // comments\n}\n\nvar _ = pair{}\n",
			want: []string{"internal/low/seeded.go is not gofmt-formatted"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			files := maps.Clone(synthModule)
			if c.file != "" {
				files["internal/low/seeded.go"] = "package low\n\n" + c.file
			}
			dir := writeFiles(t, files)
			p, err := loadProgram(dir)
			if err != nil {
				t.Fatal(err)
			}
			dead, _, _ := deadProblems(p, append(slices.Clone(allow), c.allow...))
			unformatted, err := gofmtProblems(dir)
			if err != nil {
				t.Fatal(err)
			}
			wantProblems(t, slices.Concat(importProblems(p.imports, tiers, rows), dead, unformatted), c.want)
		})
	}

	// The golden gate, with synthModule's schema constant low.Schema at 2
	// and one golden whose manifest line records it: a seeded case edits
	// the golden, adds one, or names a constant that does not exist.
	t.Run("goldens", func(t *testing.T) {
		t.Parallel()
		files := maps.Clone(synthModule)
		files["internal/low/schema.go"] = "package low\n\nconst Schema = 2\n"
		p, err := loadProgram(writeFiles(t, files))
		if err != nil {
			t.Fatal(err)
		}
		const gold = "internal/low/testdata/golden.txt"
		line := func(content, covers string) string {
			return fmt.Sprintf("%s %x %s\n", gold, sha256.Sum256([]byte(content)), covers)
		}
		for _, c := range []struct {
			name, content, manifest, extra string // extra: one more testdata file
			want                           []string
		}{
			{name: "goldens_listed", content: "v1\n", manifest: line("v1\n", "low.Schema=2"), extra: "internal/low/testdata/fuzz/FuzzX/seed"},
			{name: "golden_bumped", content: "v2\n", manifest: line("v1\n", "low.Schema=1")},
			{name: "golden_without_bump", content: "v2\n", manifest: line("v1\n", "low.Schema=2"), want: []string{
				gold + " changed with no schema bump (low.Schema=2 as recorded): bump low.Schema"}},
			{name: "unlisted_golden", content: "v1\n", manifest: line("v1\n", "low.Schema=2"), extra: "internal/low/testdata/golden_new.txt",
				want: []string{"internal/low/testdata/golden_new.txt is in no line of testdata/GOLDENS"}},
			{name: "missing_constant", content: "v1\n", manifest: line("v1\n", "low.Gone=1"),
				want: []string{"testdata/GOLDENS names low.Gone for " + gold + ", and no package declares that constant"}},
		} {
			t.Run(c.name, func(t *testing.T) {
				tree := map[string]string{gold: c.content, goldensPath: c.manifest}
				if c.extra != "" {
					tree[c.extra] = "x"
				}
				problems, manifest, err := goldenProblems(p, writeFiles(t, tree))
				if err != nil {
					t.Fatal(err)
				}
				wantProblems(t, problems, c.want)
				if rewritten := line(c.content, "low.Schema=2"); len(c.want) == 0 && !strings.HasSuffix(manifest, "\n"+rewritten) {
					t.Errorf("rewritten manifest:\n%s\nwant its line %q", manifest, rewritten)
				}
			})
		}
	})

	// The flag/doc gate over a one-command README: a flag the docs still
	// name after the command dropped it, and a flag the command gained
	// without the docs.
	readme := "## Command-line reference\n\n### `tool`\n\n- `-a`, `-b`.\n\n## Usage\n\n" +
		"```sh\ngo run ./cmd/tool -a \\\n    -b   # both\n```\n\nSee `-b`.\n"
	for _, c := range []struct {
		name, readme string
		flags        []string
		want         []string
	}{
		{name: "flags_documented", readme: readme, flags: []string{"a", "b"}},
		{name: "stale_readme_flag", readme: readme + "Retry with `tool -gone N`.\n", flags: []string{"a", "b"},
			want: []string{"README.md:15 names -gone, which no command registers"}},
		{name: "undocumented_flag", readme: readme, flags: []string{"a", "b", "new"},
			want: []string{"tool -new is undocumented"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			problems := flagDocProblems(parseFlagDocs(c.readme), []string{"tool"}, map[string][]string{"tool": c.flags})
			wantProblems(t, problems, c.want)
		})
	}
}

// writeFiles writes files, keyed by slash-separated relative path, under a
// fresh temporary directory and returns it.
func writeFiles(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// wantProblems checks that a gate reported one problem per want, in order,
// each containing its want.
func wantProblems(t *testing.T, problems, want []string) {
	t.Helper()
	if len(problems) != len(want) {
		t.Fatalf("gates report %q, want %d problems", problems, len(want))
	}
	for i, w := range want {
		if !strings.Contains(problems[i], w) {
			t.Errorf("problem %d is %q, want %q", i, problems[i], w)
		}
	}
}

// TestGateFlagDocs checks README against the flags every command
// registers, read from its -h output: that is where the flags gridflag and
// obs build at run time show up, which a scan of the source cannot see.
func TestGateFlagDocs(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	doc := parseFlagDocs(string(readme))
	registered := map[string][]string{}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for cmd := range doc.reference {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name, sub, _ := strings.Cut(cmd, " ")
			args := append([]string{"run", "./cmd/" + name}, strings.Fields(sub)...)
			out, _ := exec.Command("go", append(args, "-h")...).CombinedOutput() // -h exits non-zero
			var flags []string
			for _, line := range strings.Split(string(out), "\n") {
				if rest, ok := strings.CutPrefix(line, "  -"); ok {
					flags = append(flags, strings.Fields(rest)[0])
				}
			}
			if len(flags) == 0 {
				t.Errorf("%s -h lists no flags:\n%s", cmd, out)
			}
			mu.Lock()
			registered[cmd] = flags
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, problem := range flagDocProblems(doc, dirs, registered) {
		t.Error(problem)
	}
}

// flagDocs is what README says about flags: per command (a heading of the
// "Command-line reference" section, "sweep" or "sweepd serve"), the flags
// its subsection names; and, outside that section, the flags each
// `go run ./cmd/...` line of a code block passes and the flags inline code
// names.
type flagDocs struct {
	reference map[string][]string
	runs      []flagUse
	inline    []flagUse // cmd is empty: inline code may name any command's flag
}

// A flagUse is the flags one README line names, and the command it runs
// ("sweepd serve", or "mfdl all" for mfdl with a positional argument).
type flagUse struct {
	line  int
	cmd   string
	flags []string
}

var (
	codeSpan  = regexp.MustCompile("`[^`]+`")
	flagToken = regexp.MustCompile(`(?:^|[\s(\[])-([a-z][a-z0-9-]*)`)
	cmdRun    = regexp.MustCompile(`\./cmd/([a-z]+)((?: [a-z]+)?)`)
)

func flagTokens(code string) []string {
	var flags []string
	for _, m := range flagToken.FindAllStringSubmatch(code, -1) {
		flags = append(flags, m[1])
	}
	return flags
}

func parseFlagDocs(readme string) flagDocs {
	doc := flagDocs{reference: map[string][]string{}}
	var (
		inRef, fenced bool
		section       string // the reference subsection being read
		running       string // the command a continued code-block line runs
	)
	for i, line := range strings.Split(readme, "\n") {
		switch {
		case strings.HasPrefix(line, "```"):
			fenced, running = !fenced, ""
			continue
		case !fenced && strings.HasPrefix(line, "## "):
			inRef, section = line == "## Command-line reference", ""
			continue
		case !fenced && inRef && strings.HasPrefix(line, "### "):
			section = strings.Trim(strings.TrimPrefix(line, "### "), "` ")
			doc.reference[section] = []string{}
			continue
		}
		code := codeSpan.FindAllString(line, -1)
		if fenced {
			code = []string{line}
		}
		for _, c := range code {
			c = strings.Trim(c, "`")
			switch {
			case inRef:
				if section != "" {
					doc.reference[section] = append(doc.reference[section], flagTokens(c)...)
				}
			case fenced:
				if m := cmdRun.FindStringSubmatch(c); m != nil {
					running = m[1] + m[2]
				}
				if running != "" {
					c, _, _ = strings.Cut(c, " #")
					doc.runs = append(doc.runs, flagUse{i + 1, running, flagTokens(c)})
					if !strings.HasSuffix(strings.TrimSpace(c), "\\") {
						running = ""
					}
				}
			case strings.HasPrefix(c, "go ") || strings.HasPrefix(c, "make "):
				// the go tool's flags and make targets are not the commands'
			default:
				if flags := flagTokens(c); len(flags) > 0 {
					doc.inline = append(doc.inline, flagUse{i + 1, "", flags})
				}
			}
		}
	}
	return doc
}

// flagDocProblems compares README's flags with the registered ones: every
// command directory has a reference subsection, each subsection names
// exactly its command's flags, and every flag named elsewhere exists — on
// the command a code-block line runs, or on some command for inline code.
func flagDocProblems(doc flagDocs, dirs []string, registered map[string][]string) []string {
	var problems []string
	known := map[string]bool{}
	for _, flags := range registered {
		for _, f := range flags {
			known[f] = true
		}
	}
	for _, dir := range dirs {
		found := false
		for cmd := range doc.reference {
			found = found || cmd == dir || strings.HasPrefix(cmd, dir+" ")
		}
		if !found {
			problems = append(problems, fmt.Sprintf("cmd/%s has no subsection in README's command-line reference", dir))
		}
	}
	for cmd, named := range doc.reference {
		for _, f := range registered[cmd] {
			if !slices.Contains(named, f) {
				problems = append(problems, fmt.Sprintf("%s -%s is undocumented: name it in README's %s reference", cmd, f, cmd))
			}
		}
		for _, f := range named {
			if !slices.Contains(registered[cmd], f) {
				problems = append(problems, fmt.Sprintf("README's %s reference names -%s, which %s does not register", cmd, f, cmd))
			}
		}
	}
	for _, u := range append(doc.runs, doc.inline...) {
		cmd := u.cmd
		if _, ok := registered[cmd]; !ok {
			cmd, _, _ = strings.Cut(cmd, " ") // `mfdl all` runs mfdl; `sweepd serve` has its own flags
		}
		for _, f := range u.flags {
			switch {
			case cmd != "" && !slices.Contains(registered[cmd], f):
				problems = append(problems, fmt.Sprintf("README.md:%d runs %s -%s, which %s does not register", u.line, cmd, f, cmd))
			case cmd == "" && !known[f]:
				problems = append(problems, fmt.Sprintf("README.md:%d names -%s, which no command registers", u.line, f))
			}
		}
	}
	sort.Strings(problems)
	return problems
}

var (
	repoOnce sync.Once
	repo     *program
	repoErr  error
)

func loadRepo(t *testing.T) *program {
	t.Helper()
	repoOnce.Do(func() { repo, repoErr = loadProgram(".") })
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repo
}

// program is one module, type-checked from source, plus benchmark/ (a
// module of its own under the root) when it exists.
type program struct {
	fset    *token.FileSet
	pkgs    []*checked          // dependencies first; benchmark/ last
	local   map[string]bool     // import paths of pkgs
	imports map[string][]string // module-relative dir → repository imports, non-test files
}

type checked struct {
	rel   string // module-relative directory, "." for the root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// listed is the part of `go list -json` the gates read.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Standard   bool
	Export     string
	Error      *struct{ Err string }
}

// loadProgram type-checks every non-test package of the module at root
// and, when root/benchmark exists, every file there, tests included: that
// directory cannot change, so whatever it uses counts as used.
func loadProgram(root string) (*program, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
		}
	}
	inModule := func(path string) bool { return path == modPath || strings.HasPrefix(path, modPath+"/") }
	rel := func(path string) string {
		if path == modPath {
			return "."
		}
		return strings.TrimPrefix(path, modPath+"/")
	}
	p := &program{fset: token.NewFileSet(), local: map[string]bool{}, imports: map[string][]string{}}
	benchDir := filepath.Join(root, "benchmark")
	var bench []*ast.File
	if entries, err := os.ReadDir(benchDir); err == nil {
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".go") {
				f, err := parser.ParseFile(p.fset, filepath.Join(benchDir, e.Name()), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				bench = append(bench, f)
			}
		}
	}
	args := []string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Imports,Standard,Export,Error", "./..."}
	seen := map[string]bool{}
	for _, f := range bench {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !seen[path] && !inModule(path) {
				seen[path] = true
				args = append(args, path)
			}
		}
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	var local []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listed
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
		} else {
			local = append(local, lp)
		}
	}

	byPath := map[string]*types.Package{}
	gc := importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if tp, ok := byPath[path]; ok {
			return tp, nil
		}
		if inModule(path) {
			return nil, fmt.Errorf("%s is not loaded", path)
		}
		return gc.Import(path)
	})
	check := func(path, dir string, files []*ast.File) error {
		c := &checked{rel: dir, files: files, info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		var errs []error
		conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err) }}
		c.types, _ = conf.Check(path, p.fset, files, c.info)
		if len(errs) > 0 {
			return errors.Join(errs...)
		}
		byPath[path] = c.types
		p.local[path] = true
		p.pkgs = append(p.pkgs, c)
		return nil
	}
	for _, lp := range local {
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(p.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		if err := check(lp.ImportPath, rel(lp.ImportPath), files); err != nil {
			return nil, err
		}
		var deps []string
		for _, d := range lp.Imports {
			if inModule(d) {
				deps = append(deps, rel(d))
			}
		}
		p.imports[rel(lp.ImportPath)] = deps
	}
	if len(bench) > 0 {
		if err := check(modPath+"/benchmark", "benchmark", bench); err != nil {
			return nil, err
		}
	}
	return p, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// match reports how specifically pattern covers the module-relative
// directory rel: 0 for not at all, more for a longer pattern.
func match(pattern, rel string) int {
	if base, ok := strings.CutSuffix(pattern, "/..."); ok {
		if rel == base || strings.HasPrefix(rel, base+"/") {
			return len(base)
		}
		return 0
	}
	if rel == pattern {
		return len(pattern) + 1
	}
	return 0
}

func matchesAny(patterns []string, rel string) bool {
	for _, pat := range patterns {
		if match(pat, rel) > 0 {
			return true
		}
	}
	return false
}

// importProblems checks the module's import graph against the tiers and
// the rows.
func importProblems(imports map[string][]string, tiers []tier, rows []importRow) []string {
	var problems []string
	tierOf := map[string]int{}
	for rel := range imports {
		best, at := 0, -1
		for i, tr := range tiers {
			for _, pat := range tr.pkgs {
				if m := match(pat, rel); m > best {
					best, at = m, i
				}
			}
		}
		if at < 0 {
			problems = append(problems, fmt.Sprintf("%s is in no tier of the import DAG", rel))
		}
		tierOf[rel] = at
	}
	for rel, deps := range imports {
		for _, dep := range deps {
			if from, to := tierOf[rel], tierOf[dep]; from >= 0 && to > from {
				problems = append(problems, fmt.Sprintf("%s (tier %s) imports %s (tier %s): an upward edge",
					rel, tiers[from].name, dep, tiers[to].name))
			}
		}
	}
	for _, row := range rows {
		for rel, deps := range imports {
			if !matchesAny(row.from, rel) {
				continue
			}
			for _, dep := range deps {
				if row.only != nil && !matchesAny(row.only, dep) {
					problems = append(problems, fmt.Sprintf("%s imports %s; row %s allows only %s",
						rel, dep, row.name, strings.Join(row.only, ", ")))
				}
			}
			if row.never == nil {
				continue
			}
			via := map[string]string{rel: ""}
			for queue := []string{rel}; len(queue) > 0; queue = queue[1:] {
				for _, dep := range imports[queue[0]] {
					if _, ok := via[dep]; !ok {
						via[dep] = queue[0]
						queue = append(queue, dep)
					}
				}
			}
			for dep, by := range via {
				if dep != rel && matchesAny(row.never, dep) {
					problems = append(problems, fmt.Sprintf("%s depends on %s (imported by %s); row %s forbids it",
						rel, dep, by, row.name))
				}
			}
		}
	}
	sort.Strings(problems)
	return problems
}

// A decl is one tracked top-level declaration under internal/.
type decl struct {
	name  string
	pos   token.Position
	lines int // with its doc comment
}

// deadProblems runs the dead-code gate. It returns one problem per
// unreached declaration that neither the allowlist nor an allowlisted
// declaration keeps, and per stale allowlist entry; the declaration behind
// each allowlist entry (nil where it is stale); and the lines the
// allowlist keeps alive.
func deadProblems(p *program, allow []allowed) (problems []string, kept []*decl, keptLines int) {
	tracked := map[types.Object]*decl{}
	byName := map[string]types.Object{}
	edges := map[types.Object][]types.Object{}
	var roots []types.Object
	for _, c := range p.pkgs {
		internal := strings.HasPrefix(c.rel, "internal/")
		for _, f := range c.files {
			for _, d := range f.Decls {
				for _, u := range declUnits(c, d) {
					// Uses inside a tracked declaration are edges from it;
					// uses anywhere else are roots.
					var owners []types.Object
					if internal && !u.exempt {
						owners = u.objs
						for _, obj := range u.objs {
							tracked[obj] = &decl{name: declName(c.rel, obj), pos: p.fset.Position(obj.Pos()),
								lines: p.fset.Position(u.end).Line - p.fset.Position(u.start).Line + 1}
							byName[tracked[obj].name] = obj
						}
					}
					ast.Inspect(u.node, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						if !ok {
							return true
						}
						used := origin(c.info.Uses[id])
						if used == nil || used.Pkg() == nil || !p.local[used.Pkg().Path()] {
							return true
						}
						if owners == nil {
							roots = append(roots, used)
						}
						for _, o := range owners {
							edges[o] = append(edges[o], used)
						}
						return true
					})
				}
			}
		}
	}
	// A method is reached when its type is and it implements an interface
	// the checked code mentions: calls through the interface name the
	// interface's method, not this one.
	ifaces := mentionedInterfaces(p)
	for obj := range tracked {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			for _, it := range ifaces[m.Name()] {
				if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
					edges[tn] = append(edges[tn], m)
					break
				}
			}
		}
	}
	reach := func(extra []types.Object) map[types.Object]bool {
		seen := map[types.Object]bool{}
		queue := append(append([]types.Object(nil), roots...), extra...)
		for len(queue) > 0 {
			o := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if seen[o] {
				continue
			}
			seen[o] = true
			queue = append(queue, edges[o]...)
		}
		return seen
	}

	reached := reach(nil)
	kept = make([]*decl, len(allow))
	var extra []types.Object
	for i, a := range allow {
		obj, ok := byName[a.name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("allowlist entry %s names no declaration; delete the entry", a.name))
		case reached[obj]:
			problems = append(problems, fmt.Sprintf("allowlist entry %s is reached by non-test code; delete the entry", a.name))
		default:
			kept[i] = tracked[obj]
			extra = append(extra, obj)
		}
	}
	live := reach(extra)
	var dead []*decl
	for obj, d := range tracked {
		switch {
		case !live[obj]:
			dead = append(dead, d)
		case !reached[obj]:
			keptLines += d.lines
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	for _, d := range dead {
		problems = append(problems, fmt.Sprintf("%s:%d: %s (%d lines) is reached by no non-test code: delete it, or allowlist it with a reason",
			d.pos.Filename, d.pos.Line, d.name, d.lines))
	}
	return problems, kept, keptLines
}

// A unit is what one top-level declaration, or one spec of a grouped
// declaration, defines.
type unit struct {
	objs       []types.Object
	node       ast.Node
	start, end token.Pos // doc comment included
	exempt     bool      // init, _, or an enumerator of an iota block
}

func declUnits(c *checked, d ast.Decl) []unit {
	switch d := d.(type) {
	case *ast.FuncDecl:
		start := d.Pos()
		if d.Doc != nil {
			start = d.Doc.Pos()
		}
		obj := c.info.Defs[d.Name]
		return []unit{{objs: []types.Object{obj}, node: d, start: start, end: d.End(),
			exempt: d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main")}}
	case *ast.GenDecl:
		if d.Tok == token.IMPORT {
			return nil
		}
		enum := d.Tok == token.CONST && usesIota(c, d)
		var units []unit
		for _, s := range d.Specs {
			u := unit{node: s, start: s.Pos(), end: s.End(), exempt: enum}
			doc := d.Doc
			if d.Lparen.IsValid() {
				doc = nil
			}
			switch s := s.(type) {
			case *ast.TypeSpec:
				u.objs = []types.Object{c.info.Defs[s.Name]}
				if s.Doc != nil {
					doc = s.Doc
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.Name == "_" {
						u.exempt = true
					} else if obj := c.info.Defs[n]; obj != nil {
						u.objs = append(u.objs, obj)
					}
				}
				if s.Doc != nil {
					doc = s.Doc
				}
			}
			if doc != nil {
				u.start = doc.Pos()
			}
			if !d.Lparen.IsValid() {
				u.end = d.End()
			}
			units = append(units, u)
		}
		return units
	}
	return nil
}

func usesIota(c *checked, d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.info.Uses[id] == types.Universe.Lookup("iota") {
			found = true
		}
		return !found
	})
	return found
}

// origin maps an instantiated generic object back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func declName(rel string, obj types.Object) string {
	pkg := strings.TrimPrefix(rel, "internal/")
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if ptr, ok := recv.Type().(*types.Pointer); ok {
				return fmt.Sprintf("%s.(*%s).%s", pkg, typeName(ptr.Elem()), fn.Name())
			}
			return fmt.Sprintf("%s.%s.%s", pkg, typeName(recv.Type()), fn.Name())
		}
	}
	return pkg + "." + obj.Name()
}

func typeName(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// mentionedInterfaces indexes by method name every interface with methods
// that the checked code writes as a type, plus the exported interfaces of
// the standard packages it imports (fmt.Stringer, sort.Interface, ...) and
// the methods errors.Is, As and Unwrap look for without exporting an
// interface.
func mentionedInterfaces(p *program) map[string][]*types.Interface {
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			seen[it] = true
		}
	}
	for _, src := range []string{"interface{ Unwrap() error }", "interface{ Unwrap() []error }",
		"interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		tv, err := types.Eval(p.fset, nil, token.NoPos, src)
		if err != nil {
			panic(err)
		}
		add(tv.Type)
	}
	for _, c := range p.pkgs {
		for _, tv := range c.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
		for _, dep := range c.types.Imports() {
			if !p.local[dep.Path()] {
				for _, name := range dep.Scope().Names() {
					if tn, ok := dep.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
						add(tn.Type())
					}
				}
			}
		}
	}
	byMethod := map[string][]*types.Interface{}
	for it := range seen {
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	return byMethod
}
