package main

import (
	"bytes"
	"strings"
	"testing"
)

// An -exp value outside the surviving set must not succeed in silence
// ("dict" and "prepared" are legs earlier changes deleted): usage on
// stderr, exit 2, nothing on stdout. A known leg prints its figure.
func TestExpIsValidated(t *testing.T) {
	for _, exp := range []string{"dict", "prepared", "nonsense"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", exp}, &stdout, &stderr); code != 2 {
			t.Errorf("-exp %s: exit %d, want 2", exp, code)
		}
		if !strings.Contains(stderr.String(), "unknown experiment") || !strings.Contains(stderr.String(), "fig8a") {
			t.Errorf("-exp %s: stderr lacks the usage: %q", exp, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-exp %s: wrote to stdout: %q", exp, stdout.String())
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig8a", "-scale", "0.05"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-exp fig8a: exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Figure 8(a)") {
		t.Errorf("-exp fig8a: no figure on stdout: %q", stdout.String())
	}
}
