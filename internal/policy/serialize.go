package policy

import (
	"encoding/json"
	"fmt"
)

// Serialized program format: what concordctl stores in and loads from the
// policy repository directory (the paper's "BPF file system" analogue,
// Figure 1 step 5). Maps are serialized as specifications and re-created
// empty on load, exactly like map definitions in an eBPF object file.

// MapSpec describes a map without its contents.
type MapSpec struct {
	// Type is "array", "percpu_array", "hash" or "percpu_hash".
	Type       string `json:"type"`
	Name       string `json:"name"`
	KeySize    int    `json:"key_size"`
	ValueSize  int    `json:"value_size"`
	MaxEntries int    `json:"max_entries"`
	NumCPUs    int    `json:"num_cpus,omitempty"`
}

// SpecOf extracts the specification of a map.
func SpecOf(m Map) MapSpec {
	spec := MapSpec{
		Type:       MapKindOf(m),
		Name:       m.Name(),
		KeySize:    m.KeySize(),
		ValueSize:  m.ValueSize(),
		MaxEntries: m.MaxEntries(),
	}
	switch mm := m.(type) {
	case *ArrayMap:
		spec.NumCPUs = mm.NumCPUs()
	case *HashMap:
		spec.NumCPUs = mm.NumCPUs()
	default:
		spec.Type = "hash"
	}
	return spec
}

// Build creates an empty map from the specification.
func (s MapSpec) Build() (m Map, err error) {
	defer func() {
		if r := recover(); r != nil { // checkSpec panics become errors
			m, err = nil, fmt.Errorf("policy: bad map spec %q: %v", s.Name, r)
		}
	}()
	cpus := max(s.NumCPUs, 1)
	switch s.Type {
	case "array":
		return NewArrayMap(s.Name, s.ValueSize, s.MaxEntries), nil
	case "percpu_array":
		return NewPerCPUArrayMap(s.Name, s.ValueSize, s.MaxEntries, cpus), nil
	case "hash":
		return NewHashMap(s.Name, s.KeySize, s.ValueSize, s.MaxEntries), nil
	case "percpu_hash":
		return NewPerCPUHashMap(s.Name, s.KeySize, s.ValueSize, s.MaxEntries, cpus), nil
	}
	return nil, fmt.Errorf("policy: map %q: unknown map type %q", s.Name, s.Type)
}

// serializedInsn is the on-disk instruction encoding.
type serializedInsn struct {
	Op  uint16 `json:"op"`
	Dst uint8  `json:"dst"`
	Src uint8  `json:"src"`
	Off int16  `json:"off"`
	Imm int64  `json:"imm"`
}

// serializedProgram is the on-disk program encoding.
type serializedProgram struct {
	Name  string           `json:"name"`
	Kind  string           `json:"kind"`
	Insns []serializedInsn `json:"insns"`
	Maps  []MapSpec        `json:"maps"`
}

// Marshal encodes the program (instructions plus map specs) as JSON.
func Marshal(p *Program) ([]byte, error) {
	sp := serializedProgram{Name: p.Name, Kind: p.Kind.String()}
	for _, in := range p.Insns {
		sp.Insns = append(sp.Insns, serializedInsn{
			Op: uint16(in.Op), Dst: uint8(in.Dst), Src: uint8(in.Src),
			Off: in.Off, Imm: in.Imm,
		})
	}
	for _, m := range p.Maps {
		sp.Maps = append(sp.Maps, SpecOf(m))
	}
	return json.MarshalIndent(sp, "", "  ")
}

// Unmarshal decodes a program, recreating its maps empty. The program is
// NOT verified; callers must Verify before execution.
func Unmarshal(data []byte) (*Program, error) {
	var sp serializedProgram
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("policy: decode: %w", err)
	}
	kind, ok := KindByName(sp.Kind)
	if !ok {
		return nil, fmt.Errorf("policy: unknown program kind %q", sp.Kind)
	}
	p := &Program{Name: sp.Name, Kind: kind}
	for _, si := range sp.Insns {
		p.Insns = append(p.Insns, Instruction{
			Op: Op(si.Op), Dst: Reg(si.Dst), Src: Reg(si.Src),
			Off: si.Off, Imm: si.Imm,
		})
	}
	for _, ms := range sp.Maps {
		m, err := ms.Build()
		if err != nil {
			return nil, err
		}
		p.Maps = append(p.Maps, m)
	}
	return p, nil
}
