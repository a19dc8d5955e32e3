package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// The model_err_pct reference: the paper's Table I, with its source
// and calibration seed, in table1.json.
//
//go:embed table1.json
var table1JSON []byte

// table1 is the decoded reference table.
type table1 struct {
	Source          string `json:"source"`
	CalibrationSeed uint64 `json:"calibration_seed"`
	Rows            []struct {
		Payload int                `json:"payload"`
		VirtIO  map[string]float64 `json:"virtio"`
		XDMA    map[string]float64 `json:"xdma"`
	} `json:"rows"`
}

// tailPoint is one simulated (driver, payload) point's tail RTTs.
type tailPoint struct {
	Driver  string
	Payload int
	P95Ns   int64
	P99Ns   int64
	P999Ns  int64
}

func loadTable1() (*table1, error) {
	var t table1
	if err := json.Unmarshal(table1JSON, &t); err != nil {
		return nil, fmt.Errorf("table1.json: %w", err)
	}
	return &t, nil
}

// modelErrPct is the mean absolute relative error, in percent, of the
// simulated p95/p99/p99.9 RTTs against every Table I cell whose
// (driver, payload) the points cover. It also returns how many cells
// were compared; comparing none is an error.
func modelErrPct(t *table1, points []tailPoint) (float64, int, error) {
	byKey := map[string]tailPoint{}
	for _, p := range points {
		byKey[fmt.Sprintf("%s/%d", p.Driver, p.Payload)] = p
	}
	// Fixed iteration order keeps the float sum, and so the result,
	// identical from run to run.
	sum, cells := 0.0, 0
	for _, row := range t.Rows {
		for _, driver := range []string{"virtio", "xdma"} {
			p, ok := byKey[fmt.Sprintf("%s/%d", driver, row.Payload)]
			if !ok {
				continue
			}
			ref := row.VirtIO
			if driver == "xdma" {
				ref = row.XDMA
			}
			for _, q := range []struct {
				name  string
				simNs int64
			}{{"p95", p.P95Ns}, {"p99", p.P99Ns}, {"p99.9", p.P999Ns}} {
				paperUs := ref[q.name]
				if paperUs <= 0 {
					return 0, 0, fmt.Errorf("table1.json: %s/%dB has no %s", driver, row.Payload, q.name)
				}
				sum += math.Abs(float64(q.simNs)/1000-paperUs) / paperUs
				cells++
			}
		}
	}
	if cells == 0 {
		return 0, 0, fmt.Errorf("no Table I cell matches the simulated points")
	}
	return 100 * sum / float64(cells), cells, nil
}
