package train

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Category labels one slice of the Figure-3 time breakdown.
type Category string

// The profile categories mirror Figure 3's stages: 3D convolutions,
// non-convolutional compute (element-wise ops, pooling, FC), the gradient
// aggregation (CPE ML Plugin analogue), I/O wait, optimizer time, and
// everything else (framework overhead).
const (
	CatConv      Category = "conv3d"
	CatNonConv   Category = "non-conv compute"
	CatComms     Category = "comms (allreduce)"
	CatIO        Category = "io wait"
	CatOptimizer Category = "optimizer"
	CatOther     Category = "framework/other"
)

// Profile accumulates wall time per category for one rank.
type Profile struct {
	Times map[Category]time.Duration
	Steps int
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{Times: make(map[Category]time.Duration)}
}

// Add accrues d to category c.
func (p *Profile) Add(c Category, d time.Duration) { p.Times[c] += d }

// Total returns the summed time across categories.
func (p *Profile) Total() time.Duration {
	var t time.Duration
	for _, d := range p.Times {
		t += d
	}
	return t
}

// Fraction returns category c's share of the total.
func (p *Profile) Fraction(c Category) float64 {
	tot := p.Total()
	if tot == 0 {
		return 0
	}
	return float64(p.Times[c]) / float64(tot)
}

// String renders the breakdown table (the Figure-3 analogue).
func (p *Profile) String() string {
	cats := make([]Category, 0, len(p.Times))
	for c := range p.Times {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return p.Times[cats[i]] > p.Times[cats[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12s %7s\n", "stage", "time", "share")
	for _, c := range cats {
		fmt.Fprintf(&b, "%-22s %12v %6.1f%%\n", c, p.Times[c].Round(time.Microsecond), 100*p.Fraction(c))
	}
	fmt.Fprintf(&b, "%-22s %12v over %d steps\n", "total", p.Total().Round(time.Microsecond), p.Steps)
	return b.String()
}

// forwardProfiled runs the forward pass, splitting layer time between the
// conv and non-conv categories.
func forwardProfiled(net *nn.Network, x *tensor.Tensor, p *Profile) *tensor.Tensor {
	for _, l := range net.Layers {
		start := time.Now()
		x = l.Forward(x)
		cat := CatNonConv
		if _, ok := l.(*nn.Conv3D); ok {
			cat = CatConv
		}
		p.Add(cat, time.Since(start))
	}
	return x
}

// backwardProfiled runs the network's own backward pass, the one untraced
// training runs, timing each layer from the previous layer's hook call to
// its own with the same split.
func backwardProfiled(net *nn.Network, dy *tensor.Tensor, p *Profile) {
	start := time.Now()
	net.BackwardWithHook(dy, func(l nn.Layer) {
		now := time.Now()
		cat := CatNonConv
		if _, ok := l.(*nn.Conv3D); ok {
			cat = CatConv
		}
		p.Add(cat, now.Sub(start))
		start = now
	})
}
