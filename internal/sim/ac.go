package sim

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"

	"clockrlc/internal/linalg"
	"clockrlc/internal/netlist"
	"clockrlc/internal/obs"
)

// ACResult holds a small-signal frequency sweep: per probed node, the
// complex voltage at each frequency for the requested AC stimulus.
type ACResult struct {
	Freq   []float64
	V      map[string][]complex128
	IProbe map[string][]complex128 // per AC-driven source: branch current
}

// Mag returns |V| of a probed node across the sweep.
func (r *ACResult) Mag(node string) ([]float64, error) {
	v, ok := r.V[node]
	if !ok {
		return nil, fmt.Errorf("sim: node %q was not probed", node)
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = cmplx.Abs(x)
	}
	return out, nil
}

// PhaseDeg returns the phase of a probed node in degrees.
func (r *ACResult) PhaseDeg(node string) ([]float64, error) {
	v, ok := r.V[node]
	if !ok {
		return nil, fmt.Errorf("sim: node %q was not probed", node)
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = cmplx.Phase(x) * 180 / math.Pi
	}
	return out, nil
}

// AC performs a small-signal frequency sweep of the linear netlist.
// acMag maps voltage-source names to their AC magnitudes (sources not
// listed are shorted, i.e. magnitude 0). Probes are node names; the
// branch currents of all AC-driven sources are also recorded.
func AC(nl *netlist.Netlist, freqs []float64, acMag map[string]float64, probes []string) (*ACResult, error) {
	return ACCtx(context.Background(), nl, freqs, acMag, probes)
}

// ACCtx compiles nl and runs (*Circuit).ACCtx.
func ACCtx(ctx context.Context, nl *netlist.Netlist, freqs []float64, acMag map[string]float64, probes []string) (*ACResult, error) {
	c, err := Compile(nl)
	if err != nil {
		return nil, err
	}
	return c.ACCtx(ctx, freqs, acMag, probes)
}

// ACCtx runs AC on the netlist's current values, honouring
// cancellation between frequency points and guarding each solve
// against non-finite results (ErrDiverged).
func (c *Circuit) ACCtx(ctx context.Context, freqs []float64, acMag map[string]float64, probes []string) (*ACResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(freqs) == 0 {
		return nil, fmt.Errorf("sim: AC needs at least one frequency")
	}
	_, sp := obs.StartCtx(ctx, "sim.ac")
	sp.SetAttr("freqs", len(freqs))
	defer sp.End()
	for _, f := range freqs {
		if f <= 0 {
			return nil, fmt.Errorf("sim: AC frequency %g must be positive", f)
		}
	}
	if err := c.load(); err != nil {
		return nil, err
	}
	probeIdx, err := c.probeRows(probes)
	if err != nil {
		return nil, err
	}
	srcIdx := map[string]int{}
	for k, v := range c.nl.VSources {
		srcIdx[v.Name] = k
	}
	for name := range acMag {
		if _, ok := srcIdx[name]; !ok {
			return nil, fmt.Errorf("sim: AC magnitude for unknown source %q", name)
		}
	}

	res := &ACResult{
		Freq:   append([]float64(nil), freqs...),
		V:      map[string][]complex128{},
		IProbe: map[string][]complex128{},
	}
	b := make([]complex128, c.dim)
	for name, mag := range acMag {
		b[c.srcRow[srcIdx[name]]] = complex(mag, 0)
		res.IProbe[name] = nil
	}

	// Each frequency rewrites the pattern of the dense G + jωC.
	n, gc := c.dim, &c.p
	a := linalg.NewCMatrix(n, n)
	for _, f := range freqs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := 2 * math.Pi * f
		for i := 0; i < n; i++ {
			for k := gc.rowPtr[i]; k < gc.rowPtr[i+1]; k++ {
				a.Data[i*n+gc.col[k]] = complex(gc.g[k], w*gc.c[k])
			}
		}
		x, err := linalg.SolveSystemC(a, b)
		if err != nil {
			return nil, fmt.Errorf("sim: AC solve at %g Hz: %w", f, err)
		}
		for _, v := range x {
			if cmplx.IsNaN(v) || cmplx.IsInf(v) {
				simDiverged.Inc()
				return nil, fmt.Errorf("sim: AC solve at %g Hz: %w", f, ErrDiverged)
			}
		}
		for k, p := range probes {
			var v complex128
			if idx := probeIdx[k]; idx >= 0 {
				v = x[idx]
			}
			res.V[p] = append(res.V[p], v)
		}
		for name := range acMag {
			res.IProbe[name] = append(res.IProbe[name], x[c.srcRow[srcIdx[name]]])
		}
	}
	return res, nil
}

// InputImpedance returns V/I seen by the named AC source across a
// previously computed sweep (the source must have been AC-driven).
func (r *ACResult) InputImpedance(source string, mag float64) ([]complex128, error) {
	i, ok := r.IProbe[source]
	if !ok {
		return nil, fmt.Errorf("sim: source %q was not AC-driven", source)
	}
	out := make([]complex128, len(i))
	for k, cur := range i {
		if cur == 0 {
			out[k] = complex(math.Inf(1), 0)
			continue
		}
		// The MNA source current flows from + to − inside the source;
		// the impedance seen by the source is V/(−I).
		out[k] = complex(mag, 0) / -cur
	}
	return out, nil
}
