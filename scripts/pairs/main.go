// Command pairs measures a change against a parent commit the way the
// choosing-metrics guide (§8) asks: N pairs of runs of one benchmark
// workload, parent and change alternating which goes first, then each
// side's median and quartiles per end-to-end metric and the pairs won.
//
//	make pairs WORKLOAD=chunk_sim PARENT=HEAD^ N=10 SEED=1
//
// The change is the working tree; the parent is exported with git archive
// into a temporary directory that is removed on exit. Both sides run the
// command BENCHMARK.json declares, so this measures what the driver does.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type benchmarkDecl struct {
	Command  []string `json:"command"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// result is the last line a single-workload run prints, plus the output
// digest from its "detail:" line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	OutputSHA256 string `json:"-"`
}

func main() {
	workload := flag.String("workload", "", "benchmark workload to run (required)")
	parent := flag.String("parent", "HEAD^", "commit to compare the working tree against")
	n := flag.Int("n", 10, "pairs of runs")
	seed := flag.Uint64("seed", 1, "workload seed, the same on both sides")
	flag.Parse()
	if err := run(*workload, *parent, *n, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "pairs:", err)
		os.Exit(1)
	}
}

func run(workload, parent string, n int, seed uint64) error {
	if workload == "" || n < 1 {
		return errors.New("need -workload and -n >= 1")
	}
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return fmt.Errorf("git rev-parse: %w", err)
	}
	change := strings.TrimSpace(string(top))
	raw, err := os.ReadFile(filepath.Join(change, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var decl benchmarkDecl
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	parentDir, err := os.MkdirTemp("", "pairs-parent-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(parentDir)
	export := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", parent, parentDir)
	export.Dir = change
	if out, err := export.CombinedOutput(); err != nil {
		return fmt.Errorf("export %s: %v: %s", parent, err, out)
	}

	sides := []struct{ name, dir string }{{"parent", parentDir}, {"change", change}}
	runs := [2][]result{}
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2 // even pairs start with the parent, odd with the change
			r, err := runOnce(decl.Command, sides[side].dir, workload, seed)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", i+1, sides[side].name, err)
			}
			runs[side] = append(runs[side], r)
		}
		fmt.Printf("pair %2d (%s first):", i+1, sides[i%2].name)
		for _, m := range decl.EndToEnd {
			fmt.Printf("  %s %.4g/%.4g", m.Name, runs[0][i].Metrics[m.Name].Value, runs[1][i].Metrics[m.Name].Value)
		}
		fmt.Println()
	}

	fmt.Printf("\n%s, seed %d, %d pairs, parent %s; median [q1, q3]\n", workload, seed, n, parent)
	fmt.Printf("%-16s %-32s %-32s %7s  %s\n", "metric", "parent", "change", "ratio", "pairs won by change")
	for _, m := range decl.EndToEnd {
		var side [2][]float64
		won := 0
		for i := 0; i < n; i++ {
			p, c := runs[0][i].Metrics[m.Name].Value, runs[1][i].Metrics[m.Name].Value
			side[0], side[1] = append(side[0], p), append(side[1], c)
			if (m.Better == "higher" && c > p) || (m.Better != "higher" && c < p) {
				won++ // a tie counts for neither side
			}
		}
		pq, cq := quartiles(side[0]), quartiles(side[1])
		verdict := ""
		if n >= 10 && 10*won >= 9*n && math.Abs(cq[1]-pq[1]) > pq[2]-pq[0] {
			verdict = "  gain" // >= 9/10 of >= 10 pairs, medians apart by more than the parent's IQR
		}
		fmt.Printf("%-16s %-32s %-32s %7.3f  %d/%d%s\n", m.Name+" "+m.Unit, show(pq), show(cq), cq[1]/pq[1], won, n, verdict)
	}
	failed, same := [2]int{}, true
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			failed[k] += runs[k][i].Failed
		}
		same = same && runs[0][i].OutputSHA256 == runs[1][i].OutputSHA256
	}
	fmt.Printf("failed operations: parent %d, change %d; output_sha256 equal on every pair: %v (%s)\n",
		failed[0], failed[1], same, runs[1][0].OutputSHA256)
	return nil
}

// runOnce runs the benchmark command for one workload in dir and parses
// the result line and the detail line.
func runOnce(command []string, dir, workload string, seed uint64) (result, error) {
	args := append(append([]string(nil), command[1:]...), "-workload", workload, "-seed", strconv.FormatUint(seed, 10))
	cmd := exec.Command(command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	if !r.Correct {
		return result{}, errors.New("run reported incorrect output")
	}
	for _, l := range lines {
		if detail, ok := bytes.CutPrefix(l, []byte("detail: ")); ok {
			var d struct {
				OutputSHA256 string `json:"output_sha256"`
			}
			if err := json.Unmarshal(detail, &d); err != nil {
				return result{}, fmt.Errorf("detail line: %w", err)
			}
			r.OutputSHA256 = d.OutputSHA256
		}
	}
	return r, nil
}

// quartiles returns q1, median, q3 by linear interpolation between order
// statistics.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	var q [3]float64
	for i := range q {
		pos := float64(i+1) / 4 * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		q[i] = s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return q
}

func show(q [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2]) }
