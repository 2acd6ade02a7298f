package core

import (
	"encoding/binary"
	"fmt"

	"concord/internal/policy"
	"concord/internal/policy/analysis"
	"concord/internal/policy/jit"
)

// artifact is what LoadPolicy derives from one program's verified bytes,
// computed at the first load of those bytes and shared, read-only, by every
// Policy that loads them again (DESIGN §7 decision 8).
type artifact struct {
	rep *analysis.Report
	// tier is the tier choice whose tree every later load shares; nil when
	// the tree cannot be shared. A program that names a map is lowered
	// against its own map objects, which are per load, so its tier is
	// chosen at every load.
	tier *jit.Choice
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

// admit returns a verified program's analysis report and tier choice: from
// the artifact store when the same bytes were loaded before, computed and
// stored otherwise. Two loads that miss together both compute and the
// first to store wins; the other, and every load after, shares its
// artifact.
func (f *Framework) admit(prog *policy.Program) (*analysis.Report, jit.Choice, error) {
	key := artifactKey(prog)
	f.mu.Lock()
	art := f.artifacts[string(key)]
	f.mu.Unlock()
	if art == nil {
		rep, err := analysis.Analyze(prog)
		if err != nil {
			return nil, jit.Choice{}, fmt.Errorf("concord: analyzing %s: %w", prog.Name, err)
		}
		tier := jit.Choose(prog, rep)
		art = &artifact{rep: rep}
		if len(prog.Maps) == 0 {
			art.tier = &tier
		}
		f.mu.Lock()
		if won := f.artifacts[string(key)]; won != nil {
			art = won
		} else {
			f.artifacts[string(key)] = art
		}
		f.mu.Unlock()
		if art.rep == rep {
			return rep, tier, nil
		}
	}
	if art.tier != nil {
		if tier, ok := art.tier.For(prog); ok {
			return art.rep, tier, nil
		}
	}
	return art.rep, jit.Choose(prog, art.rep), nil
}
