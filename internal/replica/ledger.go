package replica

import (
	"math"

	"mfdl/internal/stats"
)

// Ledger is the user accounting of one run under the paper's §3.1 user
// model, kept by both simulators: counted arrivals, departures charged to
// their classes, populations integrated after warmup, and at the end the
// per-file averages (Little's law over departures). What differs between
// the simulators — online time, files an aborted user started, whose ρ
// counts — is what they pass in.
type Ledger struct {
	out                    *Outcome
	dlPop, seedPop         stats.TimeWeighted
	sumOnline, sumDownload float64
	sumFiles               int
}

// NewLedger returns a ledger filling out, with file-count classes 1..k and
// one bandwidth class per name.
func NewLedger(out *Outcome, k int, bandwidth ...string) Ledger {
	out.Classes = make([]Class, k)
	for i := range out.Classes {
		out.Classes[i].Class = i + 1
	}
	for _, name := range bandwidth {
		out.Bandwidth = append(out.Bandwidth, Class{Name: name})
	}
	return Ledger{out: out}
}

// Arrive counts one user arriving after warmup.
func (l *Ledger) Arrive() { l.out.ArrivedUsers++ }

// Departure is one counted user leaving, complete or aborted.
type Departure struct {
	// Class is the number of files requested; BwClass indexes the
	// bandwidth class, -1 for none.
	Class, BwClass int
	// Online and Download are the time in the system and downloading.
	Online, Download float64
	// Files is the number of files started: the class, unless an abort
	// came first. The per-file averages divide by it, the fluid model's
	// x/λ accounting per torrent entry: a file never started charges
	// neither time nor a file.
	Files   int
	Aborted bool
	// Rho is the final allocation ratio; it joins FinalRho if CountRho.
	Rho      float64
	CountRho bool
}

// Depart charges one counted departure.
func (l *Ledger) Depart(d Departure) {
	c := &l.out.Classes[d.Class-1]
	if d.Aborted {
		l.out.AbortedUsers++
	} else {
		c.Completed++
		l.out.CompletedUsers++
	}
	c.OnlineTime.Add(d.Online)
	c.DownloadTime.Add(d.Download)
	if d.BwClass >= 0 && d.BwClass < len(l.out.Bandwidth) {
		b := &l.out.Bandwidth[d.BwClass]
		if !d.Aborted {
			b.Completed++
		}
		b.OnlineTime.Add(d.Online)
		b.DownloadTime.Add(d.Download)
	}
	l.sumOnline += d.Online
	l.sumDownload += d.Download
	l.sumFiles += d.Files
	if d.CountRho {
		l.out.FinalRho.Add(d.Rho)
	}
}

// Observe records the populations holding from time at, measured from
// warmup, on.
func (l *Ledger) Observe(at float64, downloaders, seeds int) {
	l.dlPop.Observe(at, float64(downloaders))
	l.seedPop.Observe(at, float64(seeds))
}

// Finish fills the per-file averages and the population means over a
// window of length span after warmup.
func (l *Ledger) Finish(span float64) {
	l.out.AvgOnlinePerFile, l.out.AvgDownloadPerFile = math.NaN(), math.NaN()
	if l.sumFiles > 0 {
		l.out.AvgOnlinePerFile = l.sumOnline / float64(l.sumFiles)
		l.out.AvgDownloadPerFile = l.sumDownload / float64(l.sumFiles)
	}
	l.out.MeanDownloaders = l.dlPop.MeanUntil(span)
	l.out.MeanSeeds = l.seedPop.MeanUntil(span)
}
