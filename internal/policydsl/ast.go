package policydsl

// AST node types. Every node carries a position for error reporting.

type pos struct{ line, col int }

// Unit is one parsed source file: map declarations plus policies.
type Unit struct {
	Maps     []*MapDecl
	Policies []*PolicyDecl
}

// MapDecl declares a shared map: `map name kind(param = v, ...);`
type MapDecl struct {
	pos
	Name    string
	Kind    string // "array", "hash", "percpu_array", "percpu_hash"
	Key     int64  // key size in bytes (array maps fix this to 4)
	Value   int64  // value size in bytes
	Entries int64
	CPUs    int64 // per-CPU kinds only
}

// PolicyDecl is `policy <hookkind> <name> { ... }`.
type PolicyDecl struct {
	pos
	HookKind string
	Name     string
	Body     []Stmt
}

// Stmt is a statement node.
type Stmt interface{ stmtPos() pos }

// LetStmt declares and initializes a local: `let x = e;`
type LetStmt struct {
	pos
	Name string
	Init Expr
}

// AssignStmt assigns to an existing local: `x = e;`
type AssignStmt struct {
	pos
	Name  string
	Value Expr
}

// MapAssignStmt writes a map slot: `m[k] = v;` or `m[k] += v;`
type MapAssignStmt struct {
	pos
	Map   string
	Key   Expr
	Value Expr
	Add   bool // += (atomic map_add) vs = (map_update)
}

// ReturnStmt is `return e;`
type ReturnStmt struct {
	pos
	Value Expr
}

// IfStmt is `if (cond) {..} else {..}` (else optional; else-if chains
// are nested IfStmts).
type IfStmt struct {
	pos
	Cond Expr
	Then []Stmt
	Else []Stmt // nil if absent
}

// ForStmt is the bounded, compile-time-unrolled loop
// `for i in lo..hi { ... }`.
type ForStmt struct {
	pos
	Var    string
	Lo, Hi int64
	Body   []Stmt
}

// ExprStmt evaluates an expression for its effects: `trace(x);`
type ExprStmt struct {
	pos
	X Expr
}

func (s *LetStmt) stmtPos() pos       { return s.pos }
func (s *AssignStmt) stmtPos() pos    { return s.pos }
func (s *MapAssignStmt) stmtPos() pos { return s.pos }
func (s *ReturnStmt) stmtPos() pos    { return s.pos }
func (s *IfStmt) stmtPos() pos        { return s.pos }
func (s *ForStmt) stmtPos() pos       { return s.pos }
func (s *ExprStmt) stmtPos() pos      { return s.pos }

// Expr is an expression node; all values are 64-bit integers.
type Expr interface{ exprPos() pos }

// IntLit is an integer literal.
type IntLit struct {
	pos
	Val int64
}

// VarRef reads a local variable (or an unrolled loop variable).
type VarRef struct {
	pos
	Name string
}

// CtxField reads a context field: `ctx.curr_socket`.
type CtxField struct {
	pos
	Field string
}

// MapIndex reads a map slot: `m[k]` (0 when the key is absent).
type MapIndex struct {
	pos
	Map string
	Key Expr
}

// Call invokes a builtin: cpu(), numa_node(), now(), task_id(),
// task_prio(), rand(), trace(x).
type Call struct {
	pos
	Func string
	Args []Expr
}

// Unary is -x, !x, ~x.
type Unary struct {
	pos
	Op string
	X  Expr
}

// Binary is a binary operation; Op is the source token.
type Binary struct {
	pos
	Op   string
	L, R Expr
}

// Cond is the ternary `c ? a : b`.
type Cond struct {
	pos
	C, A, B Expr
}

func (e *IntLit) exprPos() pos   { return e.pos }
func (e *VarRef) exprPos() pos   { return e.pos }
func (e *CtxField) exprPos() pos { return e.pos }
func (e *MapIndex) exprPos() pos { return e.pos }
func (e *Call) exprPos() pos     { return e.pos }
func (e *Unary) exprPos() pos    { return e.pos }
func (e *Binary) exprPos() pos   { return e.pos }
func (e *Cond) exprPos() pos     { return e.pos }
