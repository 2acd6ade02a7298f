// Cross-policy interference: two verified policies may each be safe in
// isolation yet interact badly when attached concurrently if they share a
// map — a policy on lock A and a policy on lock B that both write map
// "stats" race through it (§6's conflicting-policies hazard, lifted from
// hook decisions to shared state). This file classifies those
// interactions statically from the per-program map footprints, so the
// framework can reject or surface them at Attach time instead of
// debugging them at runtime.
package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Conflict classes, ordered by severity.
const (
	// ConflictWriteWrite: both policies mutate the map. Concurrent
	// attachment makes the map contents a race between the two programs;
	// admission treats this as blocking.
	ConflictWriteWrite = "write-write"
	// ConflictReadWrite: one policy mutates a map the other reads — its
	// decisions depend on state it does not own. Surfaced as a warning.
	ConflictReadWrite = "read-write"
)

// MapUse aggregates one policy's accesses to one map across all its
// programs.
type MapUse struct {
	Map    string `json:"map"`
	Reads  int    `json:"reads"`
	Writes int    `json:"writes"`
	// Programs lists the program names touching the map, sorted.
	Programs []string `json:"programs"`
	// WriteSlots lists the written value offsets ("+0", "+8"), sorted,
	// when slot information is available.
	WriteSlots []string `json:"write_slots,omitempty"`
}

// Uses flattens a policy's reports into per-map aggregated accesses,
// keyed by map name.
func Uses(reports []*Report) map[string]*MapUse {
	uses := map[string]*MapUse{}
	for _, r := range reports {
		if r == nil {
			continue
		}
		for _, fp := range r.Footprint {
			if fp.ReadSites == 0 && fp.WriteSites == 0 {
				continue // referenced but unreachable
			}
			u := uses[fp.Map]
			if u == nil {
				u = &MapUse{Map: fp.Map}
				uses[fp.Map] = u
			}
			u.Reads += fp.ReadSites
			u.Writes += fp.WriteSites
			u.Programs = append(u.Programs, r.Program)
			for slot := range fp.Slots {
				u.WriteSlots = append(u.WriteSlots, slot)
			}
		}
	}
	for _, u := range uses {
		sort.Strings(u.Programs)
		u.Programs = dedupSorted(u.Programs)
		sort.Strings(u.WriteSlots)
		u.WriteSlots = dedupSorted(u.WriteSlots)
	}
	return uses
}

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Conflict is one statically-detected interference between two policies
// through a shared map. Left/Right carry each side's aggregated use.
type Conflict struct {
	Map   string `json:"map"`
	Class string `json:"class"`
	Left  MapUse `json:"left"`
	Right MapUse `json:"right"`
	// SharedSlots are written value offsets both sides store to — the
	// bytes that are literally racing (write-write only, and only when
	// both sides carry slot information).
	SharedSlots []string `json:"shared_slots,omitempty"`
}

// Blocking reports whether admission should reject the pair (under
// InterferenceReject): write-write conflicts block, read-write warns.
func (c Conflict) Blocking() bool { return c.Class == ConflictWriteWrite }

// String renders one conflict line for human output.
func (c Conflict) String() string {
	out := fmt.Sprintf("map %s: %s (left reads=%d writes=%d via %s; right reads=%d writes=%d via %s)",
		c.Map, c.Class,
		c.Left.Reads, c.Left.Writes, strings.Join(c.Left.Programs, ","),
		c.Right.Reads, c.Right.Writes, strings.Join(c.Right.Programs, ","))
	if len(c.SharedSlots) > 0 {
		out += " shared slots: " + strings.Join(c.SharedSlots, ",")
	}
	return out
}

// Interference compares two policies' map footprints (each given as the
// reports of its programs) and returns their conflicts sorted by map
// name. Two maps with the same name are treated as one storage. That is
// conservative, not a fact about the runtime: a report carries map names,
// not identities, and each load from source has maps of its own, so a
// finding is the conflict the pair would have if they shared the map.
func Interference(left, right []*Report) []Conflict {
	lu, ru := Uses(left), Uses(right)
	var out []Conflict
	for name, l := range lu {
		r := ru[name]
		if r == nil {
			continue
		}
		var class string
		switch {
		case l.Writes > 0 && r.Writes > 0:
			class = ConflictWriteWrite
		case l.Writes > 0 || r.Writes > 0:
			class = ConflictReadWrite
		default:
			continue // read-read sharing is benign
		}
		c := Conflict{Map: name, Class: class, Left: *l, Right: *r}
		if class == ConflictWriteWrite {
			c.SharedSlots = intersectSorted(l.WriteSlots, r.WriteSlots)
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Map < out[j].Map })
	return out
}

func intersectSorted(a, b []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}
