package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	a, err := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for _, p := range a.Params() {
		p.Value.RandNormal(rng, 0, 1)
	}
	a.InvalidateWeights()

	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	b, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 99})
	if err := b.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 8, 8, 8)
	x.RandNormal(rng, 0, 1)
	ya := a.Forward(x)
	yb := b.Forward(x)
	if d := tensor.MaxAbsDiff(ya.Data(), yb.Data()); d > 1e-7 {
		t.Errorf("restored network differs by %g", d)
	}
}

// TestCheckpointSizeMatchesEncoding pins CheckpointSize to the actual
// encoder output: callers (train's optimizer-state section) locate
// trailing sections by this arithmetic, so any format change must move
// both or this fails.
func TestCheckpointSizeMatchesEncoding(t *testing.T) {
	n, err := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n.CheckpointSize() {
		t.Fatalf("SaveCheckpoint wrote %d bytes, CheckpointSize reports %d", buf.Len(), n.CheckpointSize())
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	a, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 3})
	if err := a.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	b, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 4})
	if err := b.LoadCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	bufA := make([]float32, a.ParamCount())
	bufB := make([]float32, b.ParamCount())
	a.FlattenParams(bufA)
	b.FlattenParams(bufB)
	if d := tensor.MaxAbsDiff(bufA, bufB); d != 0 {
		t.Errorf("file round trip diff %g", d)
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	a, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 5})
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0xFF
	b, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 6})
	if err := b.LoadCheckpoint(bytes.NewReader(raw)); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
}

func TestCheckpointRejectsTopologyMismatch(t *testing.T) {
	a, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 7})
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	b, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 4, Seed: 8})
	if err := b.LoadCheckpoint(&buf); err == nil {
		t.Error("mismatched topology accepted")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	a, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 9})
	if err := a.LoadCheckpoint(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Error("garbage accepted")
	}
}

// paramBits returns the bits of every parameter value in layer order.
func paramBits(n *Network) []uint32 {
	var bits []uint32
	for _, p := range n.Params() {
		for _, v := range p.Value.Data() {
			bits = append(bits, math.Float32bits(v))
		}
	}
	return bits
}

// TestCheckpointErrorLeavesParamsUnchanged checks that a checkpoint that
// fails its checksum, or ends early, changes no parameter: values are
// staged and committed only after the checksum matches.
func TestCheckpointErrorLeavesParamsUnchanged(t *testing.T) {
	a, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 10})
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-1] ^= 1 // checksum byte: every tensor decodes, the CRC fails
	for name, in := range map[string][]byte{
		"bad checksum": flipped,
		"truncated":    raw[:len(raw)-100],
	} {
		b, _ := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 11})
		before := paramBits(b)
		if err := b.LoadCheckpoint(bytes.NewReader(in)); err == nil {
			t.Fatalf("%s: checkpoint accepted", name)
		}
		after := paramBits(b)
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("%s: parameter scalar %d changed by a failed load", name, i)
			}
		}
	}
}

// TestCheckpointRejectsHugeNameLength checks that a name length that does
// not match the network is rejected before anything is allocated for it.
func TestCheckpointRejectsHugeNameLength(t *testing.T) {
	n := fuzzNet()
	var buf bytes.Buffer
	if err := n.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[12:], math.MaxUint32)
	dst := fuzzNet()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := dst.LoadCheckpoint(bytes.NewReader(raw))
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("4 GiB parameter name accepted")
	}
	if d := m1.TotalAlloc - m0.TotalAlloc; d > 1<<20 {
		t.Errorf("rejecting the name length allocated %d bytes", d)
	}
}

// fuzzNet builds a tiny two-layer network whose checkpoint is a few hundred
// bytes, so the fuzzer spends its time in the decoder.
func fuzzNet() *Network {
	rng := rand.New(rand.NewSource(1))
	return &Network{Layers: []Layer{
		NewConv3D("conv", 1, 2, 3, 1, 1, nil, rng),
		NewDense("fc", 4, 3, nil, rng),
	}}
}

// FuzzLoadCheckpoint throws arbitrary bytes at the checkpoint decoder. The
// invariants: loading never panics; a load that fails leaves every
// parameter bit-unchanged; and a checkpoint it accepts re-encodes through
// SaveCheckpoint to a byte prefix of the input (anything after it is a
// trailing section the decoder does not read).
func FuzzLoadCheckpoint(f *testing.F) {
	src := fuzzNet()
	rng := rand.New(rand.NewSource(2))
	for _, p := range src.Params() {
		p.Value.RandNormal(rng, 0, 1)
	}
	var buf bytes.Buffer
	if err := src.SaveCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add(append(append([]byte(nil), seed...), "trailing section"...))
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(seed)-1])
	long := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(long[12:], 1<<31) // first name length
	f.Add(long)
	f.Add([]byte("CFCK"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := fuzzNet()
		before := paramBits(n)
		if err := n.LoadCheckpoint(bytes.NewReader(data)); err != nil {
			after := paramBits(n)
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("failed load (%v) changed parameter scalar %d", err, i)
				}
			}
			return
		}
		var out bytes.Buffer
		if err := n.SaveCheckpoint(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("accepted checkpoint re-encodes to %d bytes that are not a prefix of the %d-byte input",
				out.Len(), len(data))
		}
	})
}
