package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// spawn runs one workload once in a fresh child process (a re-exec of this
// binary), so heap, scratch-directory warmth and peak RSS do not leak from
// one run into the next, and returns the child's report.
func spawn(cfg config, workload string, trace int) (runReport, error) {
	var rep runReport
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatUint(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-layers", "named",
		"-scale", strconv.FormatFloat(cfg.Scale, 'g', -1, 64), "-out", cfg.Out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep, fmt.Errorf("%s: %w", workload, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "detail: "); ok {
			return rep, json.Unmarshal([]byte(rest), &rep)
		}
	}
	return rep, fmt.Errorf("%s: the child printed no detail line", workload)
}

// workloadReport is every run of one workload in one full report.
type workloadReport struct {
	Runs   []runReport `json:"runs"`
	Traced *runReport  `json:"traced,omitempty"`
}

// reportFile is out/report.json: what the full report printed, for tools.
type reportFile struct {
	Seed      uint64                    `json:"seed"`
	Nproc     int                       `json:"nproc"`
	W         int                       `json:"W"`
	Go        string                    `json:"go"`
	Commit    string                    `json:"commit"`
	Reps      int                       `json:"reps"`
	Seconds   float64                   `json:"seconds"`
	Scale     float64                   `json:"scale"`
	Workloads map[string]workloadReport `json:"workloads"`
}

// across folds one metric over the runs: the median of the runs' medians,
// the extremes of all their batches.
func (w workloadReport) across(name string) (stat, bool) {
	var meds []float64
	s := stat{}
	for i, r := range w.Runs {
		m, ok := r.Metrics[name]
		if !ok {
			return s, false
		}
		meds = append(meds, m.Median)
		if i == 0 || m.Min < s.Min {
			s.Min = m.Min
		}
		if i == 0 || m.Max > s.Max {
			s.Max = m.Max
		}
		s.Unit = m.Unit
	}
	s.Median = median(meds)
	return s, len(meds) > 0
}

// measureAll runs every workload -reps times untraced and, with -trace 1,
// once more traced.
func measureAll(cfg config) (map[string]workloadReport, error) {
	all := map[string]workloadReport{}
	for _, w := range workloads {
		var wr workloadReport
		for i := 0; i < cfg.Reps; i++ {
			rep, err := spawn(cfg, w.Name, 0)
			if err != nil {
				return nil, err
			}
			wr.Runs = append(wr.Runs, rep)
		}
		if cfg.Trace != 0 {
			rep, err := spawn(cfg, w.Name, 1)
			if err != nil {
				return nil, err
			}
			wr.Traced = &rep
		}
		all[w.Name] = wr
	}
	return all, nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fullReport prints every metric by name and unit for every workload.
func fullReport(cfg config) error {
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return err
	}
	file := reportFile{
		Seed: cfg.Seed, Nproc: runtime.NumCPU(), W: loopWorkers(), Go: runtime.Version(), Commit: gitCommit(),
		Reps: cfg.Reps, Seconds: cfg.Seconds, Scale: cfg.Scale,
	}
	fmt.Printf("benchmark: seed=%d nproc=%d W=%d GOMAXPROCS=W reps=%d seconds=%g scale=%g %s commit=%s\n",
		file.Seed, file.Nproc, file.W, file.Reps, file.Seconds, file.Scale, file.Go, file.Commit)
	first, err := measureAll(cfg)
	if err != nil {
		return err
	}
	file.Workloads = first
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.Out, "report.json"), data, 0o644); err != nil {
		return err
	}
	failed := printReport(first, cfg)
	if cfg.SelfCheck {
		second, err := measureAll(cfg)
		if err != nil {
			return err
		}
		failed += printReport(second, cfg)
		failed += selfCheck(first, second)
	}
	if failed > 0 {
		return fmt.Errorf("%d checks failed", failed)
	}
	return nil
}

// printReport prints one set of runs and returns how many cells failed.
func printReport(all map[string]workloadReport, cfg config) (failed int) {
	for _, w := range workloads {
		wr := all[w.Name]
		fmt.Printf("\n== %s — %s\n", w.Name, w.Why)
		fmt.Printf("   %-32s %14s %14s %14s  %s\n", "end-to-end", "median", "min", "max", "unit [bound]")
		for _, d := range endToEndAll {
			s, ok := wr.across(d.Name)
			if !ok {
				continue // not defined on this workload
			}
			fmt.Printf("   %-32s %14.6g %14.6g %14.6g  %s [%g]\n", d.Name, s.Median, s.Min, s.Max, d.Unit, d.Bound)
		}
		for _, r := range wr.Runs {
			failed += r.Failed
			for _, note := range r.Notes {
				fmt.Println("   FAILED:", note)
			}
		}
		fmt.Printf("   %-32s %s (%d batches of %d cells attempted per run)\n", "output_sha256",
			wr.Runs[0].OutputSHA256, wr.Runs[0].Batches, wr.Runs[0].Attempted/wr.Runs[0].Batches)
		if wr.Traced == nil {
			continue
		}
		failed += wr.Traced.Failed
		for _, note := range wr.Traced.Notes {
			fmt.Println("   FAILED:", note)
		}
		fmt.Printf("   %-32s %14s  %s  (spans: %s/%s.trace.json)\n", "per-layer (traced run)", "value", "unit", cfg.Out, w.Name)
		for _, d := range perLayer {
			if s, ok := wr.Traced.Metrics[d.Name]; ok {
				fmt.Printf("   %-32s %14.6g  %s\n", d.Name, s.Median, d.Unit)
			}
		}
	}
	return failed
}

// selfCheck compares two sets of runs of the same commit: each end-to-end
// median of the second set may be worse than the first's by at most the
// metric's own bound.
func selfCheck(first, second map[string]workloadReport) (failed int) {
	fmt.Printf("\n== selfcheck: second set of runs against the first\n")
	for _, w := range workloads {
		for _, d := range endToEndAll {
			a, ok1 := first[w.Name].across(d.Name)
			b, ok2 := second[w.Name].across(d.Name)
			if !ok1 || !ok2 {
				continue
			}
			worse := b.Median - a.Median
			if d.Better == "higher" {
				worse = -worse
			}
			share := 0.0
			if a.Median != 0 {
				share = worse / a.Median
			} else if worse > 0 {
				share = 1
			}
			verdict := "ok"
			if share > d.Bound {
				verdict = "FAILED"
				failed++
			}
			fmt.Printf("   %-12s %-12s %12.6g -> %12.6g  %+6.1f%% worse [bound %g] %s\n",
				w.Name, d.Name, a.Median, b.Median, 100*share, d.Bound, verdict)
		}
	}
	return failed
}
