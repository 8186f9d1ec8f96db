package main

import (
	"io"
	"slices"
	"strings"
	"testing"
)

func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		args      string
		workloads []string // nil: the parse must fail
		errHas    string
	}{
		{"", []string{"mixed", "fs"}, ""},
		{"-workloads mixed,fs,net -recover-crash -min-states 12088", []string{"mixed", "fs", "net"}, ""},
		{"-fs", []string{"fs"}, ""},
		{"-shards 2 -seeds 8", []string{"shard"}, ""},
		{"-workloads wrap, -seeds 8 -inject torn-delta", []string{"wrap"}, ""},
		// Every printed artifact names its workload and replays.
		{"-workloads mixed -seed 1 -replay E3K0", []string{"mixed"}, ""},
		{"-workloads net -seed 3 -replay E2K1+RE1K0", []string{"net"}, ""},
		{"-workloads shard -shards 2 -seed 1 -replay G209/E2K1/E2K0/E2K0", []string{"shard"}, ""},
		// -replay used to fall back to mixed, silently, unless exactly
		// one workload was named; the default names two.
		{"-workloads fs,net -seed 3 -replay E2K1", nil, "-replay needs exactly one workload"},
		{"-seed 3 -replay E2K1", nil, "-replay needs exactly one workload"},
		{"-no-such-flag", nil, "flag provided but not defined"},
	} {
		var stderr strings.Builder
		c, err := parseArgs(strings.Fields(tc.args), &stderr)
		switch {
		case tc.workloads == nil && (err == nil || !strings.Contains(stderr.String(), tc.errHas)):
			t.Errorf("%q: err %v, stderr %q; want a usage error mentioning %q", tc.args, err, stderr.String(), tc.errHas)
		case tc.workloads != nil && (err != nil || !slices.Equal(c.o.Workloads, tc.workloads)):
			t.Errorf("%q: workloads %v, err %v; want %v", tc.args, c.o.Workloads, err, tc.workloads)
		}
	}
	c, err := parseArgs(strings.Fields("-seed 7 -seeds 2 -states 9 -conc 4 -inject nosync -min-states 5 -recover-crash"), io.Discard)
	if err != nil || c.o.Seed != 7 || c.o.Seeds != 2 || c.o.MaxStates != 9 || c.o.MixedParams.ConcFlushers != 4 ||
		c.o.Inject != "nosync" || c.minStates != 5 || !c.o.RecoverCrash || c.o.ReorderWindow != 3 {
		t.Errorf("flags not carried into the options: %+v, err %v", c, err)
	}
}
