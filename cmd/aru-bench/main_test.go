package main

import (
	"strings"
	"testing"
)

func TestUsageProblem(t *testing.T) {
	for _, tc := range []struct {
		exp, connect, traceOut string
		positional             []string
		want                   string // substring of the message; "" = accepted
	}{
		{exp: "all"},
		{exp: "arulat", connect: "localhost:9477", traceOut: "t.json"},
		{exp: "concurrent", want: "valid: all, table1, fig5, fig6, arulat"},
		{exp: "all", traceOut: "t.json", want: "-trace-out needs -connect"},
		{exp: "table1", positional: []string{"stray"}, want: `unexpected argument "stray"`},
	} {
		got := usageProblem(tc.exp, tc.connect, tc.traceOut, tc.positional)
		if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) {
			t.Errorf("usageProblem(%q, %q, %q, %v) = %q, want %q", tc.exp, tc.connect, tc.traceOut, tc.positional, got, tc.want)
		}
	}
}
