package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redi/internal/dataset"
	"redi/internal/rng"
	"redi/internal/synth"
)

// TestCmdServeReplay runs the serve command in replay mode twice over the
// same seed data and request log: the outputs must be byte-identical, and
// every replayed API request must succeed.
func TestCmdServeReplay(t *testing.T) {
	d := synth.Generate(synth.DefaultPopulation(200), rng.New(5)).Data
	csvPath := writeTempCSV(t, d)
	logPath := filepath.Join(t.TempDir(), "replay.jsonl")
	log := strings.Join([]string{
		`{"method":"GET","path":"/stats"}`,
		`{"method":"GET","path":"/audit?threshold=3&maxnull=0.2"}`,
		`{"method":"GET","path":"/query?e=f0+%3E+0&mode=count"}`,
		`{"method":"POST","path":"/discovery","body":"{\"values\":[\"black\",\"white\"],\"threshold\":0.3}"}`,
	}, "\n") + "\n"
	if err := os.WriteFile(logPath, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func() string {
		return captureStdout(t, func() error {
			return cmdServe([]string{"-schema", popSchema, "-threshold", "3", "-replay", logPath, csvPath})
		})
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay output differs:\n%s\n----\n%s", a, b)
	}
	for _, block := range []string{"## GET /stats\n200\n", "## GET /audit?threshold=3&maxnull=0.2\n200\n"} {
		if !strings.Contains(a, block) {
			t.Fatalf("missing %q in replay output:\n%s", block, a)
		}
	}
	if strings.Contains(a, "\n500\n") {
		t.Fatalf("5xx in replay output:\n%s", a)
	}
}

// TestCmdServeMaxNullZero pins that -maxnull 0 reaches the service as a
// bound of 0 for audits that carry no maxnull parameter.
func TestCmdServeMaxNullZero(t *testing.T) {
	d := synth.Generate(synth.DefaultPopulation(50), rng.New(5)).Data
	if err := d.SetValue(0, "f0", dataset.NullValue(dataset.Numeric)); err != nil {
		t.Fatal(err)
	}
	csvPath := writeTempCSV(t, d)
	logPath := filepath.Join(t.TempDir(), "replay.jsonl")
	if err := os.WriteFile(logPath, []byte(`{"method":"GET","path":"/audit?threshold=3"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return cmdServe([]string{"-schema", popSchema, "-maxnull", "0", "-replay", logPath, csvPath})
	})
	if !strings.Contains(out, `(max 0.0000)"}]}`) {
		t.Fatalf("-maxnull 0 not applied:\n%s", out)
	}
}

func TestCmdServeErrors(t *testing.T) {
	if err := cmdServe([]string{"-schema", popSchema}); err == nil {
		t.Fatal("missing input file accepted")
	}
	d := synth.Generate(synth.DefaultPopulation(20), rng.New(5)).Data
	csvPath := writeTempCSV(t, d)
	if err := cmdServe([]string{"-schema", "bad", "-replay", "x", csvPath}); err == nil {
		t.Fatal("bad schema accepted")
	}
	if err := cmdServe([]string{"-schema", popSchema, "-replay", "/nonexistent.jsonl", csvPath}); err == nil {
		t.Fatal("missing replay log accepted")
	}
}
