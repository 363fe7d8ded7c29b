package main

import (
	"io"
	"strings"
	"testing"
)

// TestRunBadFlags pins the CLI's error paths. Every case here fails
// before the lab is built, so the whole table runs in milliseconds.
func TestRunBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"unknown experiment", []string{"-exp", "fig99"}, `unknown experiment "fig99"`},
		{"typo among valid names", []string{"-exp", "table1,figg2"}, `unknown experiment "figg2"`},
		{"deleted experiment", []string{"-exp", "skew"}, `unknown experiment "skew"`},
		{"empty selection", []string{"-exp", ","}, "no experiments selected"},
		{"negative n", []string{"-n", "-5"}, "must not be negative"},
		{"negative queries", []string{"-queries", "-1"}, "must not be negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) = nil, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %q, want substring %q", tc.args, err, tc.want)
			}
		})
	}
}
