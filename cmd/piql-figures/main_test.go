package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownExperimentIsAUsageError: a mistyped -experiment must not
// run nothing and exit 0; it exits 2 and names every valid experiment.
func TestUnknownExperimentIsAUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "fig13", "-quick"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("usage error wrote to stdout: %q", stdout.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown experiment "fig13"`) {
		t.Errorf("message does not name the bad experiment: %q", msg)
	}
	for _, name := range experiments {
		if !strings.Contains(msg, name) {
			t.Errorf("message does not list %q: %q", name, msg)
		}
	}
}

// TestExperimentNamesAreCaseInsensitive runs the cheapest experiment
// under a mixed-case name.
func TestExperimentNamesAreCaseInsensitive(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "Fig1", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "total:") {
		t.Errorf("no total line: %q", stdout.String())
	}
}
