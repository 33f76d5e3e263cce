package train

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/optim"
)

// fuzzNet is a one-layer network (a 3→2 dense layer, 8 parameters), so a
// real saved optimizer state is ~100 bytes and cheap to mutate.
func fuzzNet() *nn.Network {
	rng := rand.New(rand.NewSource(1))
	return &nn.Network{InputDim: 1, Layers: []nn.Layer{nn.NewDense("fc", 3, 2, nil, rng)}}
}

// stateOpt replays a decoded TrainState through the optim.Optimizer
// surface SaveTrainState encodes from.
type stateOpt struct{ st *TrainState }

func (o stateOpt) Step()                     {}
func (o stateOpt) StepCount() int            { return o.st.StepCount }
func (o stateOpt) SetStepCount(int)          {}
func (o stateOpt) LR() float64               { return 0 }
func (o stateOpt) StateBuffers() [][]float32 { return o.st.Bufs }

// FuzzLoadTrainState throws arbitrary bytes at the optimizer-state section
// decoder LoadTrainState applies after the parameter section. The
// invariants: decoding never panics; the bytes it allocates stay within
// a fixed multiple of the input length (declared counts are bounded by
// the section length before any make); and an accepted section re-encodes
// through SaveTrainState to exactly the bytes it was decoded from. Bytes
// after the section's checksum are ignored by design (a later section may
// follow), so the re-encoding must match a prefix of the input.
func FuzzLoadTrainState(f *testing.F) {
	dir := f.TempDir()
	net := fuzzNet()
	plen := net.CheckpointSize()

	// Seed from a real saved state: three AdamLARC steps on the network.
	opt := optim.New(net.Params(), optim.Config{Schedule: optim.DefaultSchedule(10)})
	for k := 0; k < 3; k++ {
		fillGrads(net, k)
		opt.Step()
	}
	seedPath := filepath.Join(dir, "seed.ckpt")
	if err := SaveTrainState(seedPath, net, opt, 2); err != nil {
		f.Fatal(err)
	}
	saved, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	section := saved[plen:]
	f.Add(section)
	f.Add(append(append([]byte(nil), section...), 0xde, 0xad)) // trailing bytes
	f.Add(section[:len(section)-4])                            // no checksum
	f.Add(section[:23])                                        // truncated buffer header
	f.Add(section[:4])                                         // magic only
	f.Add([]byte{})                                            // params-only checkpoint
	corrupt := append([]byte(nil), section...)
	corrupt[30] ^= 0x40 // payload bit flip: checksum mismatch
	f.Add(corrupt)
	// Counts far past the section: buffer count, then one buffer length.
	huge := append([]byte(nil), section[:16]...) // magic, version, step, epochs
	f.Add(binary.LittleEndian.AppendUint32(huge, 0xffffffff))
	f.Add(append(append([]byte(nil), section[:20]...), 0xff, 0xff, 0xff, 0x7f))

	out := filepath.Join(dir, "out.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := readStateSection(bytes.NewReader(data), len(data))
		runtime.ReadMemStats(&after)
		// Declared counts are capped at len/4 before each make: up to
		// len/4 slice headers (6 bytes per input byte), buffers already
		// read (≤ 1 per input byte) and one more being read (≤ 1); plus
		// the 4 KiB bufio reader and headroom for the fuzz harness.
		const slack = 64 << 10
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(8*len(data)+slack) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil || st == nil {
			if len(data) > 0 && st == nil && err == nil {
				t.Fatal("non-empty section decoded to no state and no error")
			}
			return
		}
		if err := SaveTrainState(out, net, stateOpt{st}, st.EpochsDone); err != nil {
			t.Fatal(err)
		}
		re, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, re[plen:]) {
			t.Fatalf("re-encoded section differs from the accepted input:\nin  %x\nout %x", data, re[plen:])
		}
	})
}
