// Command pairs measures a change against a parent commit the way the
// choosing-metrics guide (§8) asks: N pairs of runs of a benchmark
// workload, parent and change alternating which goes first, then each
// side's median and quartiles per end-to-end metric, the pairs won and the
// §6.5 verdict against the bound BENCHMARK.json fixes for the metric.
//
//	make pairs WORKLOAD=chunk_sim PARENT=HEAD^ N=10 SEED=1
//	make pairs WORKLOAD=all                  (or a comma list)
//
// Several workloads run one after the other and share the closing table, a
// row per (workload, metric), so "the others did not move" is a recorded
// table.
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
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
}

type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the relative worsening of the median that counts as a
	// regression.
	Bound float64 `json:"bound"`
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
	workload := flag.String("workload", "", `benchmark workload to run: a name, a comma list, or "all" (required)`)
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

	workloads := strings.Split(workload, ",")
	if workload == "all" {
		workloads = nil
		for _, w := range decl.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	sides := [2]struct{ name, dir string }{{"parent", parentDir}, {"change", change}}
	var table []string
	for _, w := range workloads {
		fmt.Printf("%s, seed %d\n", w, seed)
		runs := [2][]result{}
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // even pairs start with the parent, odd with the change
				r, err := runOnce(decl.Command, sides[side].dir, w, seed)
				if err != nil {
					return fmt.Errorf("%s pair %d, %s: %w", w, i+1, sides[side].name, err)
				}
				runs[side] = append(runs[side], r)
			}
			fmt.Printf("pair %2d (%s first):", i+1, sides[i%2].name)
			for _, m := range decl.EndToEnd {
				fmt.Printf("  %s %.4g/%.4g", m.Name, runs[0][i].Metrics[m.Name].Value, runs[1][i].Metrics[m.Name].Value)
			}
			fmt.Println()
		}
		for _, m := range decl.EndToEnd {
			var side [2][]float64
			for k := range side {
				for _, r := range runs[k] {
					side[k] = append(side[k], r.Metrics[m.Name].Value)
				}
			}
			pq, cq := quartiles(side[0]), quartiles(side[1])
			won, verdict := judge(m, side[0], side[1])
			table = append(table, fmt.Sprintf("%-12s %-16s %-32s %-32s %7.3f  %2d/%-2d  %s",
				w, m.Name+" "+m.Unit, show(pq), show(cq), cq[1]/pq[1], won, n, verdict))
		}
		failed, same := [2]int{}, true
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				failed[k] += runs[k][i].Failed
			}
			same = same && runs[0][i].OutputSHA256 == runs[1][i].OutputSHA256
		}
		table = append(table, fmt.Sprintf("%-12s failed operations: parent %d, change %d; output_sha256 equal on every pair: %v (%s)",
			w, failed[0], failed[1], same, runs[1][0].OutputSHA256))
	}

	fmt.Printf("\nseed %d, %d pairs, parent %s; median [q1, q3]\n", seed, n, parent)
	fmt.Printf("%-12s %-16s %-32s %-32s %7s  %-5s  %s\n", "workload", "metric", "parent", "change", "ratio", "won", "verdict")
	fmt.Println(strings.Join(table, "\n"))
	return nil
}

// judge counts the pairs the change won (a tie counts for neither side)
// and gives the verdict of choosing-metrics §6.5 and §8:
//
//   - improved: at least ten pairs, the change won nine tenths of them, and
//     the medians are apart by more than the parent's interquartile range;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound;
//   - unresolved: either side's interquartile range is wider than the
//     bound, so "no worse" cannot be told from these runs — unless every
//     run of the change beats every run of the parent;
//   - within bound: otherwise.
func judge(m metricDecl, parent, change []float64) (won int, verdict string) {
	better := func(c, p float64) bool {
		if m.Better == "higher" {
			return c > p
		}
		return c < p
	}
	n, allBetter := len(parent), true
	for i := range parent {
		if better(change[i], parent[i]) {
			won++
		}
		for _, p := range parent {
			allBetter = allBetter && better(change[i], p)
		}
	}
	pq, cq := quartiles(parent), quartiles(change)
	worsening := (cq[1] - pq[1]) / pq[1]
	if m.Better == "higher" {
		worsening = -worsening
	}
	wide := (pq[2]-pq[0])/pq[1] > m.Bound || (cq[2]-cq[0])/cq[1] > m.Bound
	switch {
	case n >= 10 && 10*won >= 9*n && better(cq[1], pq[1]) && math.Abs(cq[1]-pq[1]) > pq[2]-pq[0]:
		return won, "improved"
	case worsening > m.Bound:
		return won, "worse"
	case wide && !allBetter:
		return won, "unresolved"
	}
	return won, "within bound"
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
