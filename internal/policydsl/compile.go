package policydsl

import (
	"fmt"
	"strings"

	"concord/internal/policy"
)

// CompiledUnit is the result of compiling one DSL source: verified-ready
// programs plus the maps they share.
type CompiledUnit struct {
	Programs []*policy.Program
	Maps     map[string]policy.Map
	// Lines maps each program name to its pc → 1-based source line
	// table, recorded at statement granularity during code generation.
	// Analysis and verifier findings (which carry a pc) map back to DSL
	// source through it.
	Lines map[string][]int
}

// Program returns a compiled policy by name.
func (u *CompiledUnit) Program(name string) (*policy.Program, bool) {
	for _, p := range u.Programs {
		if p.Name == name {
			return p, true
		}
	}
	return nil, false
}

// LineFor maps an instruction pc of the named program back to the DSL
// source line that generated it (0 when unknown).
func (u *CompiledUnit) LineFor(progName string, pc int) int {
	lines := u.Lines[progName]
	if pc < 0 || pc >= len(lines) {
		return 0
	}
	return lines[pc]
}

// Compile parses, type-checks and code-generates a DSL source into cBPF
// programs. The output is not yet verified; pass it through
// policy.Verify (Framework.LoadPolicy does). By construction the
// generated code only ever jumps forward, so verification failures
// indicate compiler bugs, not user errors.
func Compile(src string) (*CompiledUnit, error) {
	unit, err := Parse(src)
	if err != nil {
		return nil, err
	}

	maps := make(map[string]policy.Map, len(unit.Maps))
	for _, md := range unit.Maps {
		if _, dup := maps[md.Name]; dup {
			return nil, errf(md.line, md.col, "duplicate map %q", md.Name)
		}
		m, err := buildMap(md)
		if err != nil {
			return nil, err
		}
		maps[md.Name] = m
	}

	out := &CompiledUnit{Maps: maps, Lines: make(map[string][]int)}
	seen := map[string]bool{}
	for _, pd := range unit.Policies {
		if seen[pd.Name] {
			return nil, errf(pd.line, pd.col, "duplicate policy %q", pd.Name)
		}
		seen[pd.Name] = true
		prog, lines, err := compilePolicy(pd, maps)
		if err != nil {
			return nil, err
		}
		out.Programs = append(out.Programs, prog)
		out.Lines[prog.Name] = lines
	}
	return out, nil
}

// CompileAndVerify compiles and verifies in one step.
func CompileAndVerify(src string) (*CompiledUnit, error) {
	u, err := Compile(src)
	if err != nil {
		return nil, err
	}
	for _, p := range u.Programs {
		if _, err := policy.Verify(p); err != nil {
			return nil, fmt.Errorf("policydsl: generated code failed verification (compiler bug): %w", err)
		}
	}
	return u, nil
}

func buildMap(md *MapDecl) (policy.Map, error) {
	if md.Value == 0 {
		md.Value = 8
	}
	if md.Value != 8 {
		// DSL map expressions address value word 0 only.
		return nil, errf(md.line, md.col, "map %q: DSL maps must have value = 8", md.Name)
	}
	if md.Entries <= 0 {
		return nil, errf(md.line, md.col, "map %q: entries must be positive", md.Name)
	}
	key, cpus := int64(4), int64(0)
	switch md.Kind {
	case "array", "hash":
	case "percpu_array", "percpu_hash":
		if cpus = md.CPUs; cpus <= 0 {
			cpus = 80
		}
	default:
		return nil, errf(md.line, md.col, "unknown map kind %q (array | hash | percpu_hash | percpu_array)", md.Kind)
	}
	if strings.HasSuffix(md.Kind, "hash") {
		if key = md.Key; key == 0 {
			key = 8
		}
		if key != 4 && key != 8 {
			return nil, errf(md.line, md.col, "map %q: hash key must be 4 or 8 bytes", md.Name)
		}
	}
	spec := policy.MapSpec{Type: md.Kind, Name: md.Name, KeySize: int(key), ValueSize: int(md.Value),
		MaxEntries: int(md.Entries), NumCPUs: int(cpus)}
	return spec.Build()
}

// builtins maps DSL call names to helpers (arg count, helper id).
var builtins = map[string]struct {
	args   int
	helper policy.HelperID
}{
	"cpu":       {0, policy.HelperCPU},
	"numa_node": {0, policy.HelperNUMANode},
	"now":       {0, policy.HelperKtimeNS},
	"task_id":   {0, policy.HelperTaskID},
	"task_prio": {0, policy.HelperTaskPrio},
	"rand":      {0, policy.HelperRand},
	"trace":     {1, policy.HelperTrace},
	// lock_stats_read(field) reads one windowed signal of the hooked
	// lock from the continuous profiler (internal/profile Field* IDs).
	"lock_stats_read": {1, policy.HelperLockStats},
	// occ_set(on) promotes (on != 0) or demotes the hooked lock's
	// optimistic read tier; returns 1 if the state changed.
	"occ_set": {1, policy.HelperOCCSet},
}

// Stack frame layout (all offsets from the frame pointer):
//
//	fp-8  .. fp-1   map key scratch
//	fp-16 .. fp-9   map value scratch
//	fp-24-8i        local variable i
//	below locals    expression spill slots
const (
	keySlot   = -8
	valueSlot = -16
	localBase = -24
)

// maxUnroll bounds `for` loop iterations so unrolled programs stay well
// inside policy.MaxInsns.
const maxUnroll = 128

// compiler holds per-policy code generation state.
type compiler struct {
	b       *policy.Builder
	layout  *policy.CtxLayout
	kind    policy.Kind
	maps    map[string]policy.Map
	locals  map[string]int // name -> slot index
	nlocals int
	depth   int // live expression spill slots
	labels  int
	lines   []int // pc -> 1-based source line (0 = unclaimed)
}

func compilePolicy(pd *PolicyDecl, maps map[string]policy.Map) (*policy.Program, []int, error) {
	kind, ok := policy.KindByName(pd.HookKind)
	if !ok {
		return nil, nil, errf(pd.line, pd.col, "unknown hook kind %q", pd.HookKind)
	}
	c := &compiler{
		b:      policy.NewBuilder(pd.Name, kind),
		layout: policy.LayoutFor(kind),
		kind:   kind,
		maps:   maps,
		locals: map[string]int{},
	}
	// Pre-pass: allocate every local so spill slots start below them.
	if err := c.collectLocals(pd.Body); err != nil {
		return nil, nil, err
	}

	// Prologue: keep the context pointer in callee-saved R6.
	c.b.MovReg(policy.R6, policy.R1)

	if err := c.stmts(pd.Body); err != nil {
		return nil, nil, err
	}
	// Implicit `return 0` so control cannot fall off the end.
	c.b.ReturnImm(0)
	// Instructions no statement claimed (prologue, implicit return)
	// attribute to the policy declaration itself.
	c.claim(0, c.b.Len(), pd.line)
	prog, err := c.b.Program()
	if err != nil {
		return nil, nil, err
	}
	return prog, c.lines, nil
}

// claim attributes instructions [start,end) to a source line, without
// overriding claims made by nested statements (which run first and are
// more specific).
func (c *compiler) claim(start, end, line int) {
	for len(c.lines) < end {
		c.lines = append(c.lines, 0)
	}
	for pc := start; pc < end; pc++ {
		if c.lines[pc] == 0 {
			c.lines[pc] = line
		}
	}
}

func (c *compiler) collectLocals(stmts []Stmt) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *LetStmt:
			if _, dup := c.locals[s.Name]; dup {
				return errf(s.line, s.col, "duplicate variable %q (policy scope is flat)", s.Name)
			}
			c.locals[s.Name] = c.nlocals
			c.nlocals++
		case *ForStmt:
			if _, dup := c.locals[s.Var]; !dup {
				c.locals[s.Var] = c.nlocals
				c.nlocals++
			}
			if err := c.collectLocals(s.Body); err != nil {
				return err
			}
		case *IfStmt:
			if err := c.collectLocals(s.Then); err != nil {
				return err
			}
			if err := c.collectLocals(s.Else); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *compiler) localOff(idx int) int16 { return int16(localBase - 8*idx) }

func (c *compiler) spillOff() (int16, error) {
	off := localBase - 8*c.nlocals - 8*(c.depth+1)
	if off < -policy.StackSize {
		return 0, fmt.Errorf("policydsl: expression too deep (stack overflow)")
	}
	return int16(off + 8), nil // top of the new slot
}

func (c *compiler) push() (int16, error) {
	off, err := c.spillOff()
	if err != nil {
		return 0, err
	}
	c.b.StoreStackReg(policy.OpStxDW, off, policy.R0)
	c.depth++
	return off, nil
}

func (c *compiler) pop(dst policy.Reg, off int16) {
	c.b.LoadStack(policy.OpLdxDW, dst, off)
	c.depth--
}

func (c *compiler) label(prefix string) string {
	c.labels++
	return fmt.Sprintf(".%s%d", prefix, c.labels)
}

func (c *compiler) stmts(list []Stmt) error {
	for _, s := range list {
		start := c.b.Len()
		err := c.stmt(s)
		c.claim(start, c.b.Len(), s.stmtPos().line)
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) stmt(s Stmt) error {
	switch s := s.(type) {
	case *LetStmt:
		if err := c.expr(s.Init); err != nil {
			return err
		}
		c.b.StoreStackReg(policy.OpStxDW, c.localOff(c.locals[s.Name]), policy.R0)
		return nil

	case *AssignStmt:
		idx, ok := c.locals[s.Name]
		if !ok {
			return errf(s.line, s.col, "assignment to undeclared variable %q", s.Name)
		}
		if err := c.expr(s.Value); err != nil {
			return err
		}
		c.b.StoreStackReg(policy.OpStxDW, c.localOff(idx), policy.R0)
		return nil

	case *ReturnStmt:
		if err := c.expr(s.Value); err != nil {
			return err
		}
		c.b.Exit()
		return nil

	case *IfStmt:
		elseL, endL := c.label("else"), c.label("end")
		if err := c.expr(s.Cond); err != nil {
			return err
		}
		c.b.JmpImm(policy.OpJeqImm, policy.R0, 0, elseL)
		if err := c.stmts(s.Then); err != nil {
			return err
		}
		c.b.Ja(endL)
		c.b.Label(elseL)
		if err := c.stmts(s.Else); err != nil {
			return err
		}
		c.b.Label(endL)
		return nil

	case *ForStmt:
		if s.Hi < s.Lo {
			return errf(s.line, s.col, "loop bounds %d..%d are inverted", s.Lo, s.Hi)
		}
		if s.Hi-s.Lo > maxUnroll {
			return errf(s.line, s.col, "loop unrolls %d times (max %d)", s.Hi-s.Lo, maxUnroll)
		}
		idx := c.locals[s.Var]
		for i := s.Lo; i < s.Hi; i++ {
			c.b.StoreStackImm(policy.OpStDW, c.localOff(idx), i)
			if err := c.stmts(s.Body); err != nil {
				return err
			}
		}
		return nil

	case *MapAssignStmt:
		m, ok := c.maps[s.Map]
		if !ok {
			return errf(s.line, s.col, "unknown map %q", s.Map)
		}
		if s.Add {
			// value -> spill, key -> key slot; call map_add.
			if err := c.expr(s.Value); err != nil {
				return err
			}
			voff, err := c.push()
			if err != nil {
				return err
			}
			if err := c.storeKey(s, m, s.Key); err != nil {
				return err
			}
			c.b.LoadMapPtr(policy.R1, m)
			c.b.MovReg(policy.R2, policy.RFP)
			c.b.AddImm(policy.R2, keySlot)
			c.pop(policy.R3, voff)
			c.b.Call(policy.HelperMapAdd)
			return nil
		}
		// m[k] = v: value into the value scratch, key into key scratch.
		if err := c.expr(s.Value); err != nil {
			return err
		}
		c.b.StoreStackReg(policy.OpStxDW, valueSlot, policy.R0)
		if err := c.storeKey(s, m, s.Key); err != nil {
			return err
		}
		c.b.LoadMapPtr(policy.R1, m)
		c.b.MovReg(policy.R2, policy.RFP)
		c.b.AddImm(policy.R2, keySlot)
		c.b.MovReg(policy.R3, policy.RFP)
		c.b.AddImm(policy.R3, valueSlot)
		c.b.Call(policy.HelperMapUpdate)
		return nil

	case *ExprStmt:
		return c.expr(s.X)
	}
	return fmt.Errorf("policydsl: unhandled statement %T", s)
}

// storeKey evaluates a key expression and stores it into the key scratch
// slot with the map's key width.
func (c *compiler) storeKey(at Stmt, m policy.Map, key Expr) error {
	if err := c.expr(key); err != nil {
		return err
	}
	switch m.KeySize() {
	case 4:
		c.b.StoreStackReg(policy.OpStxW, keySlot, policy.R0)
	case 8:
		c.b.StoreStackReg(policy.OpStxDW, keySlot, policy.R0)
	default:
		p := at.stmtPos()
		return errf(p.line, p.col, "map %q has unsupported key size %d", m.Name(), m.KeySize())
	}
	return nil
}

// expr generates code leaving the expression value in R0.
func (c *compiler) expr(e Expr) error {
	switch e := e.(type) {
	case *IntLit:
		c.b.MovImm(policy.R0, e.Val)
		return nil

	case *VarRef:
		idx, ok := c.locals[e.Name]
		if !ok {
			return errf(e.line, e.col, "unknown variable %q", e.Name)
		}
		c.b.LoadStack(policy.OpLdxDW, policy.R0, c.localOff(idx))
		return nil

	case *CtxField:
		f, ok := c.layout.FieldByName(e.Field)
		if !ok {
			return errf(e.line, e.col, "%s programs have no ctx field %q", c.kind, e.Field)
		}
		c.b.Raw(policy.Instruction{Op: policy.OpLdxDW, Dst: policy.R0, Src: policy.R6, Off: int16(f.Off)})
		return nil

	case *Call:
		spec, ok := builtins[e.Func]
		if !ok {
			return errf(e.line, e.col, "unknown builtin %q", e.Func)
		}
		if len(e.Args) != spec.args {
			return errf(e.line, e.col, "%s takes %d argument(s), got %d", e.Func, spec.args, len(e.Args))
		}
		if spec.args == 1 {
			if err := c.expr(e.Args[0]); err != nil {
				return err
			}
			c.b.MovReg(policy.R1, policy.R0)
		}
		c.b.Call(spec.helper)
		return nil

	case *MapIndex:
		m, ok := c.maps[e.Map]
		if !ok {
			return errf(e.line, e.col, "unknown map %q", e.Map)
		}
		if err := c.storeKeyExpr(e, m, e.Key); err != nil {
			return err
		}
		c.b.LoadMapPtr(policy.R1, m)
		c.b.MovReg(policy.R2, policy.RFP)
		c.b.AddImm(policy.R2, keySlot)
		c.b.Call(policy.HelperMapLookup)
		null, end := c.label("null"), c.label("end")
		c.b.JmpImm(policy.OpJeqImm, policy.R0, 0, null)
		c.b.Raw(policy.Instruction{Op: policy.OpLdxDW, Dst: policy.R0, Src: policy.R0})
		c.b.Ja(end)
		c.b.Label(null)
		c.b.MovImm(policy.R0, 0)
		c.b.Label(end)
		return nil

	case *Unary:
		if err := c.expr(e.X); err != nil {
			return err
		}
		switch e.Op {
		case "-":
			c.b.Neg(policy.R0)
		case "~":
			c.b.ALUImm(policy.OpXorImm, policy.R0, -1)
		case "!":
			t, end := c.label("t"), c.label("end")
			c.b.JmpImm(policy.OpJeqImm, policy.R0, 0, t)
			c.b.MovImm(policy.R0, 0)
			c.b.Ja(end)
			c.b.Label(t)
			c.b.MovImm(policy.R0, 1)
			c.b.Label(end)
		}
		return nil

	case *Binary:
		return c.binary(e)

	case *Cond:
		els, end := c.label("else"), c.label("end")
		if err := c.expr(e.C); err != nil {
			return err
		}
		c.b.JmpImm(policy.OpJeqImm, policy.R0, 0, els)
		if err := c.expr(e.A); err != nil {
			return err
		}
		c.b.Ja(end)
		c.b.Label(els)
		if err := c.expr(e.B); err != nil {
			return err
		}
		c.b.Label(end)
		return nil
	}
	return fmt.Errorf("policydsl: unhandled expression %T", e)
}

// storeKeyExpr is storeKey for expression contexts.
func (c *compiler) storeKeyExpr(e Expr, m policy.Map, key Expr) error {
	if err := c.expr(key); err != nil {
		return err
	}
	switch m.KeySize() {
	case 4:
		c.b.StoreStackReg(policy.OpStxW, keySlot, policy.R0)
	case 8:
		c.b.StoreStackReg(policy.OpStxDW, keySlot, policy.R0)
	default:
		p := e.exprPos()
		return errf(p.line, p.col, "map %q has unsupported key size %d", m.Name(), m.KeySize())
	}
	return nil
}

// aluOps maps arithmetic DSL operators onto register-form opcodes.
var aluOps = map[string]policy.Op{
	"+": policy.OpAddReg, "-": policy.OpSubReg, "*": policy.OpMulReg,
	"/": policy.OpDivReg, "%": policy.OpModReg,
	"&": policy.OpAndReg, "|": policy.OpOrReg, "^": policy.OpXorReg,
	"<<": policy.OpLshReg, ">>": policy.OpRshReg,
}

// cmpOps maps comparison DSL operators onto (unsigned) jump opcodes.
var cmpOps = map[string]policy.Op{
	"==": policy.OpJeqReg, "!=": policy.OpJneReg,
	"<": policy.OpJltReg, "<=": policy.OpJleReg,
	">": policy.OpJgtReg, ">=": policy.OpJgeReg,
}

func (c *compiler) binary(e *Binary) error {
	switch e.Op {
	case "&&":
		fails, end := c.label("false"), c.label("end")
		if err := c.expr(e.L); err != nil {
			return err
		}
		c.b.JmpImm(policy.OpJeqImm, policy.R0, 0, fails)
		if err := c.expr(e.R); err != nil {
			return err
		}
		c.b.JmpImm(policy.OpJeqImm, policy.R0, 0, fails)
		c.b.MovImm(policy.R0, 1)
		c.b.Ja(end)
		c.b.Label(fails)
		c.b.MovImm(policy.R0, 0)
		c.b.Label(end)
		return nil

	case "||":
		truth, end := c.label("true"), c.label("end")
		if err := c.expr(e.L); err != nil {
			return err
		}
		c.b.JmpImm(policy.OpJneImm, policy.R0, 0, truth)
		if err := c.expr(e.R); err != nil {
			return err
		}
		c.b.JmpImm(policy.OpJneImm, policy.R0, 0, truth)
		c.b.MovImm(policy.R0, 0)
		c.b.Ja(end)
		c.b.Label(truth)
		c.b.MovImm(policy.R0, 1)
		c.b.Label(end)
		return nil
	}

	// Strict evaluation: L to a spill slot, R in R0, then combine.
	if err := c.expr(e.L); err != nil {
		return err
	}
	loff, err := c.push()
	if err != nil {
		return err
	}
	if err := c.expr(e.R); err != nil {
		return err
	}
	c.pop(policy.R1, loff) // R1 = L, R0 = R

	if op, ok := aluOps[e.Op]; ok {
		// R0 = L op R: move R aside, bring L into R0.
		c.b.MovReg(policy.R2, policy.R0)
		c.b.MovReg(policy.R0, policy.R1)
		c.b.ALUReg(op, policy.R0, policy.R2)
		return nil
	}
	if op, ok := cmpOps[e.Op]; ok {
		t := c.label("cmp")
		c.b.MovReg(policy.R2, policy.R0) // R2 = R
		c.b.MovReg(policy.R0, policy.R1) // R0 = L
		c.b.MovReg(policy.R1, policy.R0) // R1 = L (jump operand)
		c.b.MovImm(policy.R0, 1)
		c.b.JmpReg(op, policy.R1, policy.R2, t)
		c.b.MovImm(policy.R0, 0)
		c.b.Label(t)
		return nil
	}
	return errf(e.line, e.col, "unsupported operator %q", e.Op)
}
