package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// golden.json holds the outputs committed with the benchmark, recorded at
// defaultSeed: each stream workload's one-round verdict digest, and the
// paper protocol's formatted Table II and Table III (the figures
// EXPERIMENTS.md reports: 94.58/95.42/92.50% Amulet accuracy, 22/28/51-day
// lifetimes, 107/107/83 B detector SRAM).
//
//go:embed golden.json
var goldenJSON []byte

type goldens struct {
	Digests map[string]string `json:"digests"`
	Tables  []string          `json:"tables"`
}

func loadGoldens() (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

func goldenDigest(workload string) (string, error) {
	g, err := loadGoldens()
	if err != nil {
		return "", err
	}
	d, ok := g.Digests[workload]
	if !ok {
		return "", fmt.Errorf("golden.json has no digest for %s", workload)
	}
	return d, nil
}

// goldenTables is Table II followed by Table III as Format prints them.
func goldenTables() (string, error) {
	g, err := loadGoldens()
	if err != nil {
		return "", err
	}
	s := ""
	for _, line := range g.Tables {
		s += line + "\n"
	}
	return s, nil
}
