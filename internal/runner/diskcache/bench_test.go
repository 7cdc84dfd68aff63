package diskcache

import (
	"fmt"
	"testing"

	"mfdl/internal/metrics"
)

// BenchmarkStoreGet times one disk hit on an entry of the paper's size
// (K = 10 classes, a fingerprint-length key): file read, decode, validate,
// mtime touch. The root BenchmarkSweepDiskCache times whole sweeps and
// cannot tell this from the pool around it.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	res := &metrics.SchemeResult{Scheme: "MTCD"}
	for i := 1; i <= 10; i++ {
		res.Classes = append(res.Classes, metrics.PerClass{
			Class: i, EntryRate: 0.1 * float64(i), DownloadTime: 50.5 * float64(i), OnlineTime: 70.25 * float64(i),
		})
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("tol=1e-10 scheme=MTCD k=10 mu=3f947ae147ae147b eta=3fe0000000000000 gamma=3fa999999999999a p=3feccccccccccccd lambda0=3ff0000000000000 rho=0000000000000000 theta=%016x", i)
		if err := s.Put(keys[i], res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}
