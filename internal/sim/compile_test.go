package sim

// A compiled Circuit against fresh compiles: a rerun after its values
// change, and a netlist that changed shape.

import (
	"context"
	"strings"
	"testing"

	"clockrlc/internal/netlist"
)

// restage writes new values into a stage netlist built by
// stageNetlist: every ladder element and sink load moves by its own
// factor, and the source gets a slower ramp.
func restage(nl *netlist.Netlist, k float64) {
	for i := range nl.Resistors {
		nl.Resistors[i].R *= 1 + k*float64(i%5)
	}
	for i := range nl.Capacitors {
		nl.Capacitors[i].C *= 1 + k*float64(i%7)
	}
	for i := range nl.Inductors {
		nl.Inductors[i].L *= 1 - k*float64(i%3)
	}
	nl.VSources[0].Wave = netlist.Ramp{V0: 0, V1: 1, Start: stageStep, Rise: stageSlew * (1 + k)}
}

// A Circuit rerun on changed values gives what a fresh compile of the
// changed netlist gives, bit for bit, on every entry point.
func TestCircuitRerunMatchesFreshCompile(t *testing.T) {
	for _, withL := range []bool{false, true} {
		nl := stageNetlist(t, withL, 6)
		c, err := Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []float64{0, 0.13, 0.31} {
			fresh := stageNetlist(t, withL, 6)
			restage(fresh, k)
			// The compiled netlist takes the fresh one's values in place.
			copy(nl.Resistors, fresh.Resistors)
			copy(nl.Capacitors, fresh.Capacitors)
			copy(nl.Inductors, fresh.Inductors)
			copy(nl.VSources, fresh.VSources)

			got, err := c.CrossingsCtx(context.Background(), stageStep, 4000*stageStep, stageSinks, 0.5, true)
			if err != nil {
				t.Fatal(err)
			}
			want, err := CrossingsCtx(context.Background(), fresh, stageStep, 4000*stageStep, stageSinks, 0.5, true)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "crossings", got, want)

			gotT, err := c.TransientCtx(context.Background(), stageStep, 600*stageStep, stageSinks)
			if err != nil {
				t.Fatal(err)
			}
			wantT, err := Transient(fresh, stageStep, 600*stageStep, stageSinks)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range stageSinks {
				sameBits(t, p, gotT.Probes[p], wantT.Probes[p])
			}

			freqs := []float64{1e8, 3e9}
			gotAC, err := c.ACCtx(context.Background(), freqs, map[string]float64{"vsrc": 1}, stageSinks)
			if err != nil {
				t.Fatal(err)
			}
			wantAC, err := AC(fresh, freqs, map[string]float64{"vsrc": 1}, stageSinks)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range stageSinks {
				for i := range freqs {
					if gotAC.V[p][i] != wantAC.V[p][i] {
						t.Fatalf("AC %s at %g Hz: %v, fresh compile %v", p, freqs[i], gotAC.V[p][i], wantAC.V[p][i])
					}
				}
			}
		}
	}
}

// A run refuses a netlist that gained or lost an element since
// Compile, and one whose values went bad, with the error a run on a
// fresh compile gives.
func TestCircuitRefusesChangedNetlist(t *testing.T) {
	nl := stageNetlist(t, true, 6)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	nl.AddC("extra", "s0", netlist.Ground, 1e-15)
	_, err = c.CrossingsCtx(context.Background(), stageStep, 4000*stageStep, stageSinks, 0.5, true)
	if err == nil || !strings.Contains(err.Error(), "netlist changed since Compile") {
		t.Fatalf("a run after an element was added: want a changed-netlist error, got %v", err)
	}
	if _, err := c.TransientCtx(context.Background(), stageStep, 10*stageStep, stageSinks); err == nil {
		t.Fatal("TransientCtx ran a netlist that gained an element")
	}
	if _, err := c.ACCtx(context.Background(), []float64{1e9}, nil, stageSinks); err == nil {
		t.Fatal("ACCtx ran a netlist that gained an element")
	}

	nl.Capacitors = nl.Capacitors[:len(nl.Capacitors)-1]
	if _, err := c.CrossingsCtx(context.Background(), stageStep, 4000*stageStep, stageSinks, 0.5, true); err != nil {
		t.Fatalf("the compiled shape again: %v", err)
	}
	nl.Resistors[3].R = -1
	_, err = c.CrossingsCtx(context.Background(), stageStep, 4000*stageStep, stageSinks, 0.5, true)
	_, want := CrossingsCtx(context.Background(), nl, stageStep, 4000*stageStep, stageSinks, 0.5, true)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("a negative resistance: got %v, a fresh compile says %v", err, want)
	}
}
