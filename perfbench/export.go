package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"redi/internal/dataset"
)

// exportReplay writes a serve workload's inputs so that an unchanged
// `redi serve` reproduces it sequentially:
//
//	redi serve -schema "$(cat dir/schema.txt)" -replay dir/requests.jsonl dir/seed.csv
//
// requests.jsonl holds the clients' lists interleaved round-robin (for
// serve-ingest-mix: one episode followed by its final-state requests), one
// serve.Record per line.
func exportReplay(name string, cfg config, dir string) error {
	var seed *dataset.Dataset
	var reqs []request
	switch name {
	case "serve-read-large":
		g, err := genReadLarge(cfg)
		if err != nil {
			return err
		}
		seed, reqs = g.base, interleaved(g.lists)
	case "serve-ingest-mix":
		g, err := genIngestMix(cfg)
		if err != nil {
			return err
		}
		seed, reqs = g.seed, append(interleaved(g.lists), g.final...)
	default:
		return fmt.Errorf("workload %s sends no requests to export", name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "schema.txt"), []byte(schemaSpec(seed.Schema())+"\n"), 0o644); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "seed.csv"), func(w *bufio.Writer) error { return seed.WriteCSV(w) }); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, "requests.jsonl"), func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for _, r := range reqs {
			if err := enc.Encode(r.rec); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeFile creates path and fills it through a buffered writer.
func writeFile(path string, fill func(*bufio.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		return err
	}
	return w.Flush()
}
