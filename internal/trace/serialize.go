package trace

import (
	"bufio"
	"encoding/binary"
	"io"
)

// The serialized form is a small versioned little-endian container:
//
//	magic "TSOT" | version u32 | name len+bytes | profile (fixed fields) |
//	core count u32 | per core: op count u32, ops (kind u8, addr u64, arg u32)
const (
	traceMagic   = "TSOT"
	traceVersion = 1
)

// Save writes the workload's serialized form to out. The bytes are a
// workload's content address, not a file format: machine checkpoints hash
// them into the header's workload digest, and cmd/tsoper-bench hashes them
// for its input digests. Both rely on Save being a pure function of the
// workload. Nothing reads them back; the same (profile, cores, seed)
// regenerate a workload through Generate.
func (w *Workload) Save(out io.Writer) error {
	bw := bufio.NewWriter(out)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	le := binary.LittleEndian
	writeU32 := func(v uint32) { binary.Write(bw, le, v) }
	writeU64 := func(v uint64) { binary.Write(bw, le, v) }
	writeF := func(v float64) { binary.Write(bw, le, v) }

	writeU32(traceVersion)
	writeU32(uint32(len(w.Profile.Name)))
	bw.WriteString(w.Profile.Name)
	p := w.Profile
	for _, v := range []uint32{
		uint32(p.OpsPerCore), uint32(p.SharedLines), uint32(p.PrivateLines),
		uint32(p.HotLines), uint32(p.SyncPeriod), uint32(p.CSStores),
		uint32(p.CSBurst), uint32(p.ComputeMean), uint32(p.PhasePeriod),
	} {
		writeU32(v)
	}
	for _, v := range []float64{p.StoreFrac, p.SharedFrac, p.HotFrac, p.Locality, p.FalseSharing} {
		writeF(v)
	}
	if p.LargeInput {
		writeU32(1)
	} else {
		writeU32(0)
	}

	writeU32(uint32(len(w.Cores)))
	for _, ops := range w.Cores {
		writeU32(uint32(len(ops)))
		for _, op := range ops {
			bw.WriteByte(byte(op.Kind))
			writeU64(uint64(op.Addr))
			writeU32(op.Arg)
		}
	}
	return bw.Flush()
}
