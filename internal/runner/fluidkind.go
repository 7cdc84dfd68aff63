package runner

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"mfdl/internal/correlation"
	"mfdl/internal/scheme"
)

// init registers the fluid-sweep kind: one steady-state solve per grid
// cell, payload gob-encoded CellValue — exactly the bytes the fabric wire
// and its checkpoint store have always carried.
func init() {
	RegisterJobKind(JobKind{Name: JobKindFluidSweep, Validate: validateFluidSweep, Prepare: prepareFluidSweep})
}

// validateFluidSweep holds the fluid-specific half of JobSpec.Validate: no
// params payload, at most MaxJobCells cells, and every cell a key its
// solve accepts. Each swept dimension overrides one knob of the key, and
// every knob's accepted values form an interval (K's integrality aside),
// so checking cell 0's key and then each dimension's smallest and largest
// value applied to it covers every cell without walking the grid. The
// generic checks have already refused a NaN value.
func validateFluidSweep(s JobSpec) error {
	if len(s.Params) > 0 {
		return fmt.Errorf("runner: %s jobs carry no params", JobKindFluidSweep)
	}
	first := s.Base
	for _, d := range s.Dims {
		if err := SetKeyDim(&first, d.Name, d.Values[0]); err != nil {
			return err
		}
	}
	if err := first.check(); err != nil {
		return fmt.Errorf("runner: job: %w", err)
	}
	cells := 1
	for _, d := range s.Dims {
		if cells *= len(d.Values); cells > MaxJobCells {
			return fmt.Errorf("runner: job of more than %d cells is past the cap", MaxJobCells)
		}
		lo, hi := d.Values[0], d.Values[0]
		for _, v := range d.Values {
			if d.Name == "k" && v != math.Trunc(v) {
				return fmt.Errorf("runner: job dimension k value %v is not an integer", v)
			}
			lo, hi = min(lo, v), max(hi, v)
		}
		for _, v := range [2]float64{lo, hi} {
			probe := first
			_ = SetKeyDim(&probe, d.Name, v)
			if err := probe.check(); err != nil {
				return fmt.Errorf("runner: job dimension %s value %v: %w", d.Name, v, err)
			}
		}
	}
	return nil
}

// maxKeyK bounds a solve key's file count K. Its models hold K(K+1)/2 + K
// states and tabulate K class rates, so a served spec with a huge K would
// exhaust every worker's memory; the paper's K is 10.
const maxKeyK = 1 << 10

// check refuses what the key's solve would refuse — the scheme, the
// fluid parameters, the correlation model (K >= 1, p in [0, 1], λ₀ > 0),
// ρ in [0, 1] and θ finite and >= 0 — and K past maxKeyK, without
// building a model. NaN fails every check.
func (k *Key) check() error {
	corr := correlation.Model{K: k.K, P: k.P, Lambda0: k.Lambda0}
	_, err := scheme.Parse(string(k.Scheme))
	switch err = errors.Join(err, k.Params.Validate(), corr.Validate()); {
	case err != nil:
		return err
	case k.K > maxKeyK:
		return fmt.Errorf("K = %d is past the cap of %d", k.K, maxKeyK)
	case !(k.Rho >= 0 && k.Rho <= 1):
		return fmt.Errorf("ρ = %v outside [0,1]", k.Rho)
	case !(k.Theta >= 0) || math.IsInf(k.Theta, 1):
		return fmt.Errorf("θ = %v must be a finite rate >= 0", k.Theta)
	}
	return nil
}

// prepareFluidSweep keeps the grid, so a cell is one Point lookup away
// from its solve.
func prepareFluidSweep(s JobSpec) (*Job, error) {
	if err := validateFluidSweep(s); err != nil {
		return nil, err
	}
	g, err := s.Grid()
	if err != nil {
		return nil, err
	}
	return &Job{
		Cells: g.Size(),
		Evaluate: func(_ context.Context, env JobEnv, cell int) ([]byte, error) {
			v, err := s.EvaluateCell(env.Cache, g.Point(cell))
			if err != nil {
				return nil, err
			}
			return EncodeCellValue(v)
		},
	}, nil
}

// EncodeCellValue renders one fluid cell as its payload bytes. Gob
// round-trips float64 bit patterns (including NaN) exactly, so a decoded
// cell is bit-identical to the computed one.
func EncodeCellValue(v CellValue) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("runner: cell value: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCellValue parses a fluid cell payload.
func DecodeCellValue(payload []byte) (CellValue, error) {
	var v CellValue
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&v); err != nil {
		return CellValue{}, fmt.Errorf("runner: cell value: %w", err)
	}
	return v, nil
}
