package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
)

// The extractor-free experiments run end to end through the CLI glue.
func TestRunLengthExperiment(t *testing.T) {
	if err := run(context.Background(), "length", "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable1Experiment(t *testing.T) {
	if err := run(context.Background(), "table1", "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), "nosuch", "", 0); err == nil {
		t.Fatal("accepted unknown experiment")
	}
}

// Every experiment prints exactly the committed figures_output.txt, so
// a change that moves any printed figure, down to its last digit, is
// seen here. Regenerate the file only for a change meant to move them.
func TestFiguresOutputMatchesCommitted(t *testing.T) {
	want, err := os.ReadFile("../../figures_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.CreateTemp(t.TempDir(), "figures")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = run(context.Background(), "all", "", 60)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from figures_output.txt:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, figures_output.txt %d", len(gl), len(wl))
}
