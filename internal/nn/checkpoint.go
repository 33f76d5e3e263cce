package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Checkpoint format: a little-endian binary stream of named parameter
// tensors with a trailing CRC32-C, so long multi-epoch runs (the paper's
// 130-epoch, 9-minute full-scale run would be a multi-day single-node job)
// can stop and resume.
//
//	magic "CFCK" | uint32 version | uint32 nparams
//	per param: uint32 nameLen | name | uint32 rank | dims... | float32 data...
//	uint32 CRC32-C of everything above
const (
	checkpointMagic   = 0x4346434B // "CFCK"
	checkpointVersion = 1
)

// CheckpointSize returns the exact byte length SaveCheckpoint produces
// for this network. It lives beside the format definition so callers that
// append their own sections after the checkpoint (train's optimizer
// state) can locate them without re-deriving the layout.
func (n *Network) CheckpointSize() int {
	size := 12 // magic + version + count
	for _, p := range n.Params() {
		size += 4 + len(p.Name) + 4 + 4*len(p.Value.Shape()) + 4*p.NumElements()
	}
	return size + 4 // CRC
}

// SaveCheckpoint writes every parameter of the network to w.
func (n *Network) SaveCheckpoint(w io.Writer) error {
	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	writeU32 := func(v uint32) error {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		_, err := bw.Write(b[:])
		return err
	}
	params := n.Params()
	if err := writeU32(checkpointMagic); err != nil {
		return err
	}
	if err := writeU32(checkpointVersion); err != nil {
		return err
	}
	if err := writeU32(uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeU32(uint32(len(p.Name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(p.Name); err != nil {
			return err
		}
		shape := p.Value.Shape()
		if err := writeU32(uint32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := writeU32(uint32(d)); err != nil {
				return err
			}
		}
		for _, v := range p.Value.Data() {
			if err := writeU32(math.Float32bits(v)); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], crc.Sum32())
	_, err := w.Write(b[:])
	return err
}

// LoadCheckpoint restores parameters saved by SaveCheckpoint. The network
// topology must match (same parameter names and shapes in order). Values
// are staged and copied into the network only once the checksum matches,
// so on any error the parameters are unchanged, and every allocation is
// sized by the network, never by a length read from r. Only the
// checkpoint's own bytes are hashed, so a checkpoint followed by trailing
// data (train's optimizer-state section) loads cleanly. The internal
// buffering may still read ahead of the checkpoint's end, though: callers
// that need the trailing bytes must locate them by arithmetic, not resume
// reading from r (see train.LoadTrainState).
func (n *Network) LoadCheckpoint(r io.Reader) error {
	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	br := bufio.NewReader(r)

	readFull := func(b []byte) error {
		if _, err := io.ReadFull(br, b); err != nil {
			return err
		}
		crc.Write(b)
		return nil
	}
	readU32 := func() (uint32, error) {
		var b [4]byte
		if err := readFull(b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:]), nil
	}
	magic, err := readU32()
	if err != nil {
		return fmt.Errorf("nn: reading checkpoint magic: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("nn: bad checkpoint magic %#x", magic)
	}
	version, err := readU32()
	if err != nil {
		return err
	}
	if version != checkpointVersion {
		return fmt.Errorf("nn: unsupported checkpoint version %d", version)
	}
	count, err := readU32()
	if err != nil {
		return err
	}
	params := n.Params()
	if int(count) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d parameters, network has %d", count, len(params))
	}
	staged := make([]float32, n.ParamCount())
	off := 0
	for _, p := range params {
		nameLen, err := readU32()
		if err != nil {
			return err
		}
		if int(nameLen) != len(p.Name) {
			return fmt.Errorf("nn: checkpoint parameter name of %d bytes does not match network parameter %q", nameLen, p.Name)
		}
		name := make([]byte, nameLen)
		if err := readFull(name); err != nil {
			return err
		}
		if string(name) != p.Name {
			return fmt.Errorf("nn: checkpoint parameter %q does not match network parameter %q", name, p.Name)
		}
		rank, err := readU32()
		if err != nil {
			return err
		}
		shape := p.Value.Shape()
		if int(rank) != len(shape) {
			return fmt.Errorf("nn: %s: checkpoint rank %d vs network rank %d", p.Name, rank, len(shape))
		}
		for i := 0; i < int(rank); i++ {
			d, err := readU32()
			if err != nil {
				return err
			}
			if int(d) != shape[i] {
				return fmt.Errorf("nn: %s: checkpoint dim %d is %d, network has %d", p.Name, i, d, shape[i])
			}
		}
		data := staged[off : off+p.NumElements()]
		off += len(data)
		raw := make([]byte, 4*len(data))
		if err := readFull(raw); err != nil {
			return err
		}
		for i := range data {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	}
	var b [4]byte
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return fmt.Errorf("nn: reading checkpoint checksum: %w", err)
	}
	stored := binary.LittleEndian.Uint32(b[:])
	if stored != crc.Sum32() {
		return fmt.Errorf("nn: checkpoint checksum mismatch")
	}
	n.UnflattenParams(staged)
	return nil
}

// SaveCheckpointFile writes the checkpoint to a file path.
func (n *Network) SaveCheckpointFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return n.SaveCheckpoint(f)
}

// LoadCheckpointFile restores a checkpoint from a file path.
func (n *Network) LoadCheckpointFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return n.LoadCheckpoint(f)
}
