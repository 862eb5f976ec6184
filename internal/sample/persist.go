package sample

// Profile persistence. A profile is expensive to build (one functional
// pass over every access) and policy-independent, so the checkpoint
// store keeps it across process restarts: a restarted sweep skips the
// functional pass entirely when a digest-matching profile exists.
//
// Source checkpoints are not serialized — their positions are implicit.
// BuildProfile forks each core's source at the start of every interval,
// and each interval advances every live core by exactly PerCore
// accesses, so the checkpoint for interval i sits at access i*PerCore
// (clipped by stream exhaustion, which Skip reproduces). DecodeProfile
// therefore rebuilds the checkpoints by forking and fast-forwarding
// fresh base sources: cheap trace regeneration instead of functional
// simulation, and byte-identical replay positions.

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint/wire"
	"repro/internal/sim"
	"repro/internal/trace"
)

// profilePayloadVersion stamps the profile payload layout inside the
// store's (separately versioned) file envelope.
const profilePayloadVersion = 2

// Encode serializes the profile's signatures and cache-state snapshots
// (everything except the source checkpoints, which are positional).
func (p *Profile) Encode() []byte {
	var enc wire.Encoder
	enc.Byte(profilePayloadVersion)
	enc.U64(p.PerCore)
	enc.U64(uint64(p.Cores))
	enc.U64(uint64(len(p.Intervals)))
	for i := range p.Intervals {
		sim.EncodeInterval(&enc, &p.Intervals[i])
	}
	enc.U64(uint64(p.snapStride))
	positions := make([]int, 0, len(p.states))
	for pos := range p.states {
		positions = append(positions, pos)
	}
	sort.Ints(positions)
	enc.U64(uint64(len(positions)))
	for _, pos := range positions {
		enc.U64(uint64(pos))
		p.states[pos].Encode(&enc)
	}
	return append([]byte(nil), enc.Bytes()...)
}

// DecodeProfile reconstructs a profile from Encode's payload plus fresh
// base sources for the same workload (consumed, like BuildProfile's).
// Any layout or shape problem is an error — the caller rebuilds the
// profile from scratch; nothing is half-restored.
func DecodeProfile(data []byte, srcs []trace.Source) (*Profile, error) {
	d := wire.NewDecoder(data)
	if v := d.Byte(); d.Err() == nil && v != profilePayloadVersion {
		return nil, fmt.Errorf("sample: profile payload v%d, this build reads v%d", v, profilePayloadVersion)
	}
	p := &Profile{
		PerCore: d.U64(),
		Cores:   int(d.U64()),
		states:  make(map[int]*sim.MachineState),
	}
	nIv := d.Length(2)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if p.PerCore == 0 || nIv == 0 {
		return nil, fmt.Errorf("sample: profile payload has no intervals")
	}
	if p.Cores != len(srcs) {
		return nil, fmt.Errorf("sample: profile spans %d cores, sources span %d", p.Cores, len(srcs))
	}
	p.Intervals = make([]sim.Interval, nIv)
	for i := range p.Intervals {
		iv, err := sim.DecodeInterval(d)
		if err != nil {
			return nil, fmt.Errorf("interval %d: %w", i, err)
		}
		p.Intervals[i] = iv
	}
	p.snapStride = int(d.U64())
	nStates := d.Length(2)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if p.snapStride < 1 {
		return nil, fmt.Errorf("sample: profile snapshot stride %d", p.snapStride)
	}
	prev := -1
	for i := 0; i < nStates; i++ {
		pos := int(d.U64())
		st, err := sim.DecodeMachineState(d)
		if err != nil {
			return nil, fmt.Errorf("snapshot at %d: %w", pos, err)
		}
		if pos <= prev || pos >= nIv {
			return nil, fmt.Errorf("sample: snapshot position %d out of order or range", pos)
		}
		if st.NCores() != p.Cores {
			return nil, fmt.Errorf("sample: snapshot at %d spans %d cores, profile %d", pos, st.NCores(), p.Cores)
		}
		p.states[pos] = st
		prev = pos
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(d.Rest()) != 0 {
		return nil, fmt.Errorf("sample: %d trailing bytes in profile payload", len(d.Rest()))
	}
	if _, ok := p.states[0]; !ok {
		return nil, fmt.Errorf("sample: profile payload is missing the boot snapshot")
	}

	// Rebuild the per-interval source checkpoints positionally.
	p.checkpoints = make([][]trace.Source, nIv)
	for i := 0; i < nIv; i++ {
		ck := make([]trace.Source, len(srcs))
		for j, s := range srcs {
			f, ok := trace.ForkSource(s)
			if !ok {
				return nil, ErrNotForkable
			}
			ck[j] = f
		}
		p.checkpoints[i] = ck
		if i+1 < nIv {
			for _, s := range srcs {
				trace.Skip(s, p.PerCore)
			}
		}
	}
	return p, nil
}
