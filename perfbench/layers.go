package main

import (
	"bytes"
	"context"
	"fmt"

	"wmstream/internal/acode"
	"wmstream/internal/exec"
	"wmstream/internal/minic"
	"wmstream/internal/opt"
	"wmstream/internal/rtl"
	"wmstream/internal/sim"
)

// compiled is one compilation through the layer packages, with the
// exact counts the benchmark guards.
type compiled struct {
	prog        *rtl.Program
	acodeInstrs int
	optInstrs   int
	passes      []opt.PassStats
	listing     string
}

// compileLayers runs Mini-C → acode → the WM optimizer pipeline, the
// same sequence the serving layer runs, timing each call as a span
// under parent.  With listing it also renders the "@line" listing that
// every /compile and /run response carries.
func compileLayers(tr *tracer, parent int, req int64, src string, level int, listing bool) (*compiled, error) {
	var (
		ast *minic.Program
		p   *rtl.Program
		err error
	)
	tr.timed("minic", parent, req, func() { ast, err = minic.Compile(src) })
	if err != nil {
		return nil, fmt.Errorf("minic: %w", err)
	}
	tr.timed("acode", parent, req, func() { p, err = acode.Gen(ast) })
	if err != nil {
		return nil, fmt.Errorf("acode: %w", err)
	}
	c := &compiled{prog: p, acodeInstrs: instrCount(p)}
	octx := opt.NewContext(opt.Level(level))
	tr.timed("opt", parent, req, func() { err = opt.WMPipeline(octx.Opts).Run(p, octx) })
	if err != nil {
		return nil, fmt.Errorf("opt: %w", err)
	}
	c.optInstrs = instrCount(p)
	c.passes = octx.Stats().Passes()
	if listing {
		tr.timed("rtl.listing", parent, req, func() { c.listing = p.StringDebug() })
	}
	return c, nil
}

// simulated is one simulation's outcome.
type simulated struct {
	stats  sim.Stats
	output string
}

// runLayers links the program and runs it to completion on a pooled
// machine with the default configuration (the engine the server
// selects by default), timing link and run as spans.
func runLayers(tr *tracer, parent int, req int64, p *rtl.Program) (simulated, error) {
	var (
		img *sim.Image
		err error
		res simulated
	)
	tr.timed("sim.link", parent, req, func() { img, err = sim.Link(p) })
	if err != nil {
		return res, fmt.Errorf("link: %w", err)
	}
	var out bytes.Buffer
	cfg := sim.DefaultConfig()
	cfg.Output = &out
	tr.timed("sim.run", parent, req, func() {
		m := sim.Acquire(img, cfg)
		res.stats, err = exec.Run(context.Background(), m, exec.Options{})
		sim.Release(m)
	})
	res.output = out.String()
	if err != nil {
		return res, fmt.Errorf("run: %w", err)
	}
	return res, nil
}

// checkpointBlob returns a real machine-state checkpoint of p taken
// after a short slice, the shape the job tier spills to disk.
func checkpointBlob(p *rtl.Program) ([]byte, int64, error) {
	img, err := sim.Link(p)
	if err != nil {
		return nil, 0, err
	}
	m := sim.New(img, sim.DefaultConfig())
	if _, err := m.RunSlice(1000); err != nil {
		return nil, 0, err
	}
	blob, err := m.SaveState()
	return blob, 1000, err
}

func instrCount(p *rtl.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, i := range f.Code {
			if i.Kind != rtl.KLabel {
				n++
			}
		}
	}
	return n
}
