package eventsim

import "mfdl/internal/replica"

// Sample flattens the run's metrics into the replica contract's named
// form, including the per-bandwidth-class ones.
func (r *Result) Sample() replica.Sample {
	o := replica.Outcome{
		OnlinePerFile: r.AvgOnlinePerFile, DownloadPerFile: r.AvgDownloadPerFile,
		MeanDownloaders: r.MeanDownloaders, MeanSeeds: r.MeanSeeds,
		FinalRho:  r.FinalRho,
		Completed: r.CompletedUsers, Arrived: r.ArrivedUsers,
		Aborted: r.AbortedUsers, SeedQuits: r.SeedQuits,
		Classes:   make([]replica.Class, len(r.Classes)),
		Bandwidth: make([]replica.Class, len(r.Bandwidth)),
	}
	for i, c := range r.Classes {
		o.Classes[i] = replica.Class{ID: c.Class, Completed: c.Completed, Online: c.OnlineTime, Download: c.DownloadTime}
	}
	for i, b := range r.Bandwidth {
		o.Bandwidth[i] = replica.Class{Name: b.Name, Completed: b.Completed, Online: b.OnlineTime, Download: b.DownloadTime}
	}
	return o.Sample()
}
