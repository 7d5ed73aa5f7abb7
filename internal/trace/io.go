package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"sccsim/internal/mem"
)

// Binary trace serialization, so generated traces can be stored, diffed,
// and replayed by external tooling. The format is little-endian:
//
//	magic "SCCT" | version u32 | nameLen u32 | name | procs u32 |
//	phases u32 | per phase: nameLen u32 | name | per proc:
//	refs u32 | refs x 8 bytes (addr u32, gap u16, kind u8, pad u8)

const (
	traceMagic   = "SCCT"
	traceVersion = 1
)

// FormatVersion is the on-disk trace format version. Cache keys include
// it so a format change invalidates previously stored traces instead of
// tripping the version check at load time.
const FormatVersion = traceVersion

// EncodeTo serializes the program.
func (p *Program) EncodeTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	writeU32 := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) } //nolint:errcheck
	writeStr := func(s string) {
		writeU32(uint32(len(s)))
		bw.WriteString(s) //nolint:errcheck
	}
	writeU32(traceVersion)
	writeStr(p.Name)
	writeU32(uint32(p.Procs))
	writeU32(uint32(len(p.Phases)))
	buf := make([]byte, refBytes)
	for _, ph := range p.Phases {
		writeStr(ph.Name)
		for _, st := range ph.Streams {
			writeU32(uint32(len(st)))
			for _, r := range st {
				binary.LittleEndian.PutUint32(buf[0:4], r.Addr)
				binary.LittleEndian.PutUint16(buf[4:6], r.Gap)
				buf[6] = byte(r.Kind)
				buf[7] = 0
				if _, err := bw.Write(buf); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadProgram deserializes a program written by EncodeTo and validates it.
func ReadProgram(r io.Reader) (*Program, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	readStr := func() (string, error) {
		n, err := readU32()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("trace: unreasonable string length %d", n)
		}
		b := make([]byte, n)
		_, err = io.ReadFull(br, b)
		return string(b), err
	}

	ver, err := readU32()
	if err != nil {
		return nil, err
	}
	if ver != traceVersion {
		return nil, fmt.Errorf("trace: version %d, want %d", ver, traceVersion)
	}
	name, err := readStr()
	if err != nil {
		return nil, err
	}
	procs, err := readU32()
	if err != nil {
		return nil, err
	}
	if procs == 0 || procs > 1<<16 {
		return nil, fmt.Errorf("trace: unreasonable processor count %d", procs)
	}
	nPhases, err := readU32()
	if err != nil {
		return nil, err
	}
	if nPhases > 1<<20 {
		return nil, fmt.Errorf("trace: unreasonable phase count %d", nPhases)
	}

	p := &Program{Name: name, Procs: int(procs)}
	buf := make([]byte, readChunkRefs*refBytes)
	for i := uint32(0); i < nPhases; i++ {
		phName, err := readStr()
		if err != nil {
			return nil, err
		}
		ph := Phase{Name: phName, Streams: make([][]mem.Ref, procs)}
		for pr := uint32(0); pr < procs; pr++ {
			n, err := readU32()
			if err != nil {
				return nil, err
			}
			if n > 1<<28 {
				return nil, fmt.Errorf("trace: unreasonable stream length %d", n)
			}
			st, err := readStream(br, int(n), buf)
			if err != nil {
				return nil, fmt.Errorf("trace: phase %d processor %d: %w", i, pr, err)
			}
			ph.Streams[pr] = st
		}
		p.Phases = append(p.Phases, ph)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("trace: deserialized program invalid: %w", err)
	}
	return p, nil
}

// refBytes is the encoded size of one reference; readChunkRefs bounds
// how many references readStream decodes per read.
const (
	refBytes      = 8
	readChunkRefs = 1 << 13
)

// readStream decodes a stream whose header claims n references, one
// read per chunk of up to readChunkRefs through buf. The length field
// is untrusted, so the stream grows with what was actually read —
// doubling, capped at n — rather than being allocated up front: a short
// file claiming 2^28 references fails having allocated a chunk, not
// 2 GB.
func readStream(r io.Reader, n int, buf []byte) ([]mem.Ref, error) {
	st := make([]mem.Ref, 0, min(n, readChunkRefs))
	for len(st) < n {
		k := min(n-len(st), readChunkRefs)
		b := buf[:k*refBytes]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("reading %d references: %w", n, err)
		}
		if len(st)+k > cap(st) {
			grown := make([]mem.Ref, len(st), min(n, max(2*cap(st), len(st)+k)))
			copy(grown, st)
			st = grown
		}
		for j := 0; j < len(b); j += refBytes {
			st = append(st, mem.Ref{
				Addr: binary.LittleEndian.Uint32(b[j:]),
				Gap:  binary.LittleEndian.Uint16(b[j+4:]),
				Kind: mem.Kind(b[j+6]),
			})
		}
	}
	return st, nil
}
