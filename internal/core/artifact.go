package core

import (
	"encoding/binary"
	"errors"

	"concord/internal/policy"
	"concord/internal/policy/analysis"
	"concord/internal/policy/jit"
)

// artifact is what LoadPolicy derives from one program's verified bytes,
// computed at the first load of those bytes and shared, read-only, by every
// Policy that loads them again (DESIGN §7 decision 8): the analysis report
// and the tier choice with its tree. A tree names maps by index and reads
// only what the key encodes of them, so a load that names maps of its own
// shares it too, and runs it over its own.
type artifact struct {
	rep  *analysis.Report
	tier jit.Choice
}

// artifactKey is the canonical encoding of what an artifact is derived
// from: the program's name, kind, instructions and map specifications. The
// store's map compares whole keys, so equal keys are equal bytes and there
// is no hash to collide.
func artifactKey(p *policy.Program) []byte {
	b := make([]byte, 0, 24+len(p.Name)+14*len(p.Insns)+40*len(p.Maps))
	appendString := func(b []byte, s string) []byte {
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	b = appendString(b, p.Name)
	b = binary.AppendVarint(b, int64(p.Kind))
	b = binary.AppendUvarint(b, uint64(len(p.Insns)))
	for _, in := range p.Insns {
		b = binary.LittleEndian.AppendUint16(b, uint16(in.Op))
		b = append(b, byte(in.Dst), byte(in.Src))
		b = binary.LittleEndian.AppendUint16(b, uint16(in.Off))
		b = binary.LittleEndian.AppendUint64(b, uint64(in.Imm))
	}
	b = binary.AppendUvarint(b, uint64(len(p.Maps)))
	for _, m := range p.Maps {
		s := policy.SpecOf(m)
		b = appendString(b, policy.MapKindOf(m))
		b = appendString(b, s.Name)
		for _, v := range []int{s.KeySize, s.ValueSize, s.MaxEntries, s.NumCPUs} {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	return b
}

// admit verifies prog, the framework's own copy of a program being loaded,
// and returns its verification stats, analysis report and tier choice.
// Each costs one walk of the bytes: on a miss the analysis is the
// verification, and its artifact is stored; on a hit Verify is the trust
// gate, and the stored artifact is shared. Two loads that miss together
// both compute and the first to store wins; the other, and every load
// after, shares its artifact.
func (f *Framework) admit(prog *policy.Program) (policy.VerifyStats, *analysis.Report, jit.Choice, error) {
	key := artifactKey(prog)
	f.mu.Lock()
	art := f.artifacts[string(key)]
	f.mu.Unlock()
	if art != nil {
		stats, err := policy.Verify(prog)
		return stats, art.rep, art.tier, err
	}
	rep, err := analysis.Analyze(prog)
	if err != nil {
		// The verifier's error itself: the analysis's wrapping adds
		// nothing for a caller of LoadPolicy.
		var verr *policy.VerifyError
		if errors.As(err, &verr) {
			err = verr
		}
		return policy.VerifyStats{}, nil, jit.Choice{}, err
	}
	art = &artifact{rep: rep, tier: jit.Choose(prog, rep)}
	f.mu.Lock()
	if won := f.artifacts[string(key)]; won != nil {
		art = won
	} else {
		f.artifacts[string(key)] = art
	}
	f.mu.Unlock()
	return rep.Verify, art.rep, art.tier, nil
}
