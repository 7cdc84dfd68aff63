package main

import "math"

// mtcdClosedForm is the harness's own implementation of the paper's
// Eq. (2), independent of internal/mtcd, so the fluid workloads check the
// solver's output against something a later PR cannot change by accident.
//
// In one torrent, class-l peers (users who requested l of the K files)
// arrive at λ^l = λ₀·C(K,l)·p^l·(1−p)^(K−l)·l/K. With S = Σ λ^l and
// H = Σ λ^l/l the class-independent per-file download time is
//
//	A = (γ·S − μ·H) / (γ·μ·η·S)
//
// and a class-i user is online T_i = i·A + 1/γ. The per-file averages
// weight T_i by the user rate λ_i = λ₀·C(K,i)·p^i·(1−p)^(K−i) and divide
// by the file-request rate Σ i·λ_i.
func mtcdClosedForm(mu, eta, gamma float64, k int, p, lambda0 float64) (online, download float64) {
	user := make([]float64, k+1)
	binom := 1.0 // C(k, i), built incrementally
	for i := 1; i <= k; i++ {
		binom = binom * float64(k-i+1) / float64(i)
		user[i] = lambda0 * binom * math.Pow(p, float64(i)) * math.Pow(1-p, float64(k-i))
	}
	var s, h float64
	for l := 1; l <= k; l++ {
		torrent := user[l] * float64(l) / float64(k)
		s += torrent
		h += torrent / float64(l)
	}
	a := (gamma*s - mu*h) / (gamma * mu * eta * s)
	var on, dl, files float64
	for i := 1; i <= k; i++ {
		on += user[i] * (float64(i)*a + 1/gamma)
		dl += user[i] * float64(i) * a
		files += user[i] * float64(i)
	}
	return on / files, dl / files
}

// relErr is |got − want| / |want|.
func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }
