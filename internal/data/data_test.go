package data

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/tfrecord"
)

// writeDataset builds a small on-disk sharded dataset with a manifest:
// nTrain train samples in shards of perFile, plus nVal validation samples.
func writeDataset(t testing.TB, dim, nTrain, nVal, perFile int, seed int64) string {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))
	gen := func(n int) []*cosmo.Sample {
		out := make([]*cosmo.Sample, n)
		for i := range out {
			target := [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
			out[i] = cosmo.SyntheticSample(dim, target, rng.Int63())
		}
		return out
	}
	if _, err := tfrecord.WriteDataset(dir, "train", gen(nTrain), perFile); err != nil {
		t.Fatal(err)
	}
	if nVal > 0 {
		if _, err := tfrecord.WriteDataset(dir, "val", gen(nVal), perFile); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Scan(dir, "train", "val", "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestScanAndManifestRoundTrip(t *testing.T) {
	dir := writeDataset(t, 8, 10, 3, 4, 1)
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim != 8 {
		t.Fatalf("manifest dim %d, want 8", m.Dim)
	}
	train := m.Split("train")
	if len(train) != 3 { // 4+4+2
		t.Fatalf("train split has %d shards, want 3", len(train))
	}
	if got := m.TotalSamples("train"); got != 10 {
		t.Fatalf("train totals %d samples, want 10", got)
	}
	if got := []int{train[0].Samples, train[1].Samples, train[2].Samples}; got[0] != 4 || got[1] != 4 || got[2] != 2 {
		t.Fatalf("per-shard samples %v, want [4 4 2]", got)
	}
	for _, sh := range train {
		fi, err := os.Stat(filepath.Join(dir, sh.File))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != sh.Bytes {
			t.Fatalf("%s: manifest says %d bytes, file is %d", sh.File, sh.Bytes, fi.Size())
		}
	}
	if len(m.Split("val")) != 1 {
		t.Fatalf("val split has %d shards, want 1", len(m.Split("val")))
	}
	if m.Split("test") != nil {
		t.Fatal("absent test split should be omitted from the manifest")
	}
}

// streamAll drains a stream, cloning each sample (the stream recycles
// voxel buffers, so retained samples must be copies).
func streamAll(t *testing.T, s SampleStream) []*cosmo.Sample {
	t.Helper()
	var out []*cosmo.Sample
	for {
		smp, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, smp.Clone())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameSamples(a, b []*cosmo.Sample) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Target != b[i].Target {
			return fmt.Errorf("sample %d targets differ", i)
		}
		for j := range a[i].Voxels {
			if a[i].Voxels[j] != b[i].Voxels[j] {
				return fmt.Errorf("sample %d voxel %d differs", i, j)
			}
		}
	}
	return nil
}

// The stream's sample sequence is a pure function of (seed, epoch, rank,
// ranks): replaying an epoch delivers bit-identical samples in identical
// order, however the prefetch interleaved underneath.
func TestLoaderEpochDeterministic(t *testing.T) {
	dir := writeDataset(t, 8, 24, 0, 4, 2)
	l, err := NewLoader(Config{Source: &DirSource{Dir: dir}, Seed: 11, DecodeWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for epoch := 0; epoch < 3; epoch++ {
		s1, err := l.EpochStream(epoch, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		a := streamAll(t, s1)
		s2, err := l.EpochStream(epoch, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		b := streamAll(t, s2)
		if err := sameSamples(a, b); err != nil {
			t.Fatalf("epoch %d replay: %v", epoch, err)
		}
		if len(a) != 12 { // 6 shards / 2 ranks * 4 samples
			t.Fatalf("epoch %d: rank streamed %d samples, want 12", epoch, len(a))
		}
	}
}

// Rank streams are disjoint and cover the epoch's dealt shards: the union
// of all ranks' samples equals the full dataset when ranks divides the
// shard count, with no sample seen twice.
func TestLoaderRankStreamsDisjoint(t *testing.T) {
	dir := writeDataset(t, 8, 24, 0, 4, 3)
	l, err := NewLoader(Config{Source: &DirSource{Dir: dir}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const ranks = 3
	seen := map[[3]float32]int{}
	total := 0
	for rank := 0; rank < ranks; rank++ {
		s, err := l.EpochStream(0, rank, ranks)
		if err != nil {
			t.Fatal(err)
		}
		for _, smp := range streamAll(t, s) {
			seen[smp.Target]++
			total++
		}
	}
	if total != 24 {
		t.Fatalf("ranks streamed %d samples total, want 24", total)
	}
	for target, n := range seen {
		if n != 1 {
			t.Fatalf("sample %v streamed %d times", target, n)
		}
	}
}

func TestLoaderStepsPerEpoch(t *testing.T) {
	dir := writeDataset(t, 8, 10, 0, 4, 4) // shards of 4, 4, 2 → min 2
	l, err := NewLoader(Config{Source: &DirSource{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.StepsPerEpoch(1); got != 6 { // 3 shards * min 2
		t.Fatalf("StepsPerEpoch(1) = %d, want 6", got)
	}
	if got := l.StepsPerEpoch(3); got != 2 {
		t.Fatalf("StepsPerEpoch(3) = %d, want 2", got)
	}
	if got := l.StepsPerEpoch(4); got != 0 { // fewer shards than ranks
		t.Fatalf("StepsPerEpoch(4) = %d, want 0", got)
	}
}

// A torn or bit-flipped shard fails the manifest checksum instead of
// feeding silently corrupted samples to the trainer.
func TestLoaderDetectsCorruptShard(t *testing.T) {
	dir := writeDataset(t, 8, 8, 0, 4, 6)
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, m.Split("train")[0].File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(Config{Source: &DirSource{Dir: dir}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := l.EpochStream(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sawErr := false
	for {
		_, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("stream over a corrupted shard completed without error")
	}
}

func TestReadAllSplit(t *testing.T) {
	dir := writeDataset(t, 8, 6, 4, 4, 7)
	val, err := ReadAll(&DirSource{Dir: dir}, "val")
	if err != nil {
		t.Fatal(err)
	}
	if len(val) != 4 {
		t.Fatalf("ReadAll(val) = %d samples, want 4", len(val))
	}
	missing, err := ReadAll(&DirSource{Dir: dir}, "test")
	if err != nil {
		t.Fatal(err)
	}
	if missing != nil {
		t.Fatal("absent split should read as nil, nil")
	}
}
