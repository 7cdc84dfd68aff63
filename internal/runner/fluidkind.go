package runner

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
)

// init registers the fluid-sweep kind: one steady-state solve per grid
// cell, payload gob-encoded CellValue — exactly the bytes the fabric wire
// and its checkpoint store have always carried.
func init() {
	RegisterJobKind(JobKind{Name: JobKindFluidSweep, Validate: validateFluidSweep, Prepare: prepareFluidSweep})
}

// validateFluidSweep holds the fluid-specific half of JobSpec.Validate:
// a finite base operating point, every swept dimension a knob of the solve
// Key, at most MaxJobCells cells, and no params payload to carry.
func validateFluidSweep(s JobSpec) error {
	if len(s.Params) > 0 {
		return fmt.Errorf("runner: %s jobs carry no params", JobKindFluidSweep)
	}
	for _, v := range []float64{
		s.Base.Params.Mu, s.Base.Params.Eta, s.Base.Params.Gamma,
		s.Base.P, s.Base.Lambda0, s.Base.Rho, s.Base.Theta,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("runner: job base parameter %v is not finite", v)
		}
	}
	probe, cells := s.Base, 1
	for _, d := range s.Dims {
		if err := SetKeyDim(&probe, d.Name, d.Values[0]); err != nil {
			return err
		}
		if cells *= len(d.Values); cells > MaxJobCells {
			return fmt.Errorf("runner: job of more than %d cells is past the cap", MaxJobCells)
		}
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
