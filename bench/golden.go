package main

import (
	"encoding/json"
	"os"
	"strconv"
)

// goldenSeeds are the seeds golden.json is recorded on. On any other
// seed a pass is checked against the cold pass only.
var goldenSeeds = []int64{1, 2}

// goldenFile holds every checked value of every cell at benchSizes:
// seed → workload → cells.
type goldenFile map[string]map[string][]cell

func loadGolden(path string) (goldenFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, err
	}
	return g, nil
}

func (g goldenFile) cells(seed int64, workload string) ([]cell, bool) {
	cells, ok := g[strconv.FormatInt(seed, 10)][workload]
	return cells, ok
}

func (g goldenFile) set(seed int64, workload string, cells []cell) {
	key := strconv.FormatInt(seed, 10)
	if g[key] == nil {
		g[key] = map[string][]cell{}
	}
	g[key][workload] = cells
}

func (g goldenFile) write(path string) error {
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
