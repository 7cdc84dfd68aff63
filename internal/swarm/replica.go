package swarm

import "mfdl/internal/replica"

// Sample flattens the run's metrics into the replica contract's named
// form, chunk transfers included. Time-like metrics are in rounds.
func (r *Result) Sample() replica.Sample {
	o := replica.Outcome{
		OnlinePerFile: r.AvgOnlinePerFile, DownloadPerFile: r.AvgDownloadPerFile,
		MeanDownloaders: r.MeanDownloaders, MeanSeeds: r.MeanSeeds,
		FinalRho:  r.FinalRho,
		Completed: r.CompletedUsers, Arrived: r.ArrivedUsers,
		Aborted: r.AbortedUsers, SeedQuits: r.SeedQuits,
		Chunks:  &r.ChunksTransferred,
		Classes: make([]replica.Class, len(r.Classes)),
	}
	for i, c := range r.Classes {
		o.Classes[i] = replica.Class{ID: c.Class, Completed: c.Completed, Online: c.OnlineRounds, Download: c.DownloadRounds}
	}
	return o.Sample()
}
