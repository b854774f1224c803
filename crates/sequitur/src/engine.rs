//! The Sequitur engine: slab-allocated doubly-linked symbol lists, a digram
//! hash table, and the two constraint-maintenance operations (digram
//! uniqueness, rule utility).
//!
//! The structure follows Nevill-Manning's reference `sequitur.cc` closely —
//! including the subtle pieces: guard nodes per rule, digram bookkeeping
//! inside `join`, the overlapping-digram ("aaa") repair, and inline
//! expansion of underused rules. One deviation: every rule keeps an
//! intrusive list of its occurrence nodes, so an underused rule's remaining
//! occurrence is found in O(1) wherever it lives (the reference
//! implementation only inspects the first body symbol of the rule involved
//! in the current match, which can leave a once-used rule behind in rare
//! interleavings).

use rustc_hash::FxHashMap;

use crate::grammar::{Grammar, GrammarRule, RuleOccurrence, Symbol};

/// Sentinel "null" node index.
const NIL: u32 = u32::MAX;

/// Internal symbol: terminal token or rule reference (engine rule id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Sym {
    T(u32),
    R(u32),
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Guard node delimiting the circular body list of `rule`.
    Guard { rule: u32 },
    /// Ordinary symbol node.
    Sym(Sym),
    /// On the free list.
    Free,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    kind: Kind,
    prev: u32,
    next: u32,
    /// Intrusive per-rule occurrence list (only for `Sym(R(_))` nodes).
    occ_prev: u32,
    occ_next: u32,
    /// Token offset of this symbol within its containing rule body
    /// (absolute token index for root-body nodes). Fixed at creation;
    /// only [`Sequitur::expand`] rewrites it, when a body is spliced
    /// into its parent. Meaningless for guards.
    pos: u32,
    /// Rule whose body contains this node (0 for the root body).
    /// Rewritten alongside `pos` during inline expansion.
    owner: u32,
}

impl Node {
    fn blank(kind: Kind) -> Self {
        Node {
            kind,
            prev: NIL,
            next: NIL,
            occ_prev: NIL,
            occ_next: NIL,
            pos: 0,
            owner: 0,
        }
    }
}

/// One change to the transitive rule-occurrence span multiset, emitted
/// by [`Sequitur::push`] when delta tracking is enabled
/// ([`Sequitur::set_delta_tracking`]).
///
/// The **net-delta cancellation property** keeps these rare and small:
/// a plain terminal push and a rule-body creation change no transitive
/// span, a substitution creates exactly one span per transitive
/// occurrence of the body it happens in, and an inline expansion
/// destroys exactly one span per transitive occurrence — every nested
/// contribution cancels because a rule's body expands to precisely the
/// tokens it replaced. Emitting one costs `O(1)` amortized (a step of
/// the engine's reused ownership-chain walk), and folding a drained
/// batch into a density curve ([`RuleDensityCurve::fold_deltas`] in
/// `egi-core`) costs `O(1)` per delta plus one pass over the hull of
/// the batch's intervals, instead of the `O(series)` of a
/// [`Sequitur::occurrences`] rebuild; it lands on the bit-identical
/// curve (the adds are exact small integers either way).
///
/// [`RuleDensityCurve::fold_deltas`]:
///     https://docs.rs/egi-core/latest/egi_core/density/struct.RuleDensityCurve.html
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccDelta {
    /// Token index where the occurrence span starts.
    pub start: usize,
    /// Number of tokens the span covers (the rule's expansion length).
    pub len: usize,
    /// `true` when the span was created, `false` when destroyed.
    pub created: bool,
}

#[derive(Debug, Clone, Copy)]
struct RuleRec {
    /// Guard node id; `NIL` once the rule has been expanded away.
    guard: u32,
    /// Head of the occurrence list.
    occ_head: u32,
    /// Number of occurrence nodes (reference count).
    uses: u32,
    /// Number of terminals the rule expands to, maintained
    /// incrementally (see [`Sequitur::occurrences`]): a non-root rule's
    /// expansion length is fixed at creation (substitution and inline
    /// expansion both preserve the expansion of the containing body),
    /// and the root's grows by one per pushed token.
    exp_len: usize,
}

/// Incremental Sequitur grammar builder.
///
/// Feed tokens with [`Sequitur::push`]; extract the final grammar with
/// [`Sequitur::into_grammar`]. Time is amortized O(1) per token.
#[derive(Debug)]
pub struct Sequitur {
    nodes: Vec<Node>,
    free: Vec<u32>,
    rules: Vec<RuleRec>,
    digrams: FxHashMap<(Sym, Sym), u32>,
    /// Rules whose use count dropped to one; drained after each match.
    underused: Vec<u32>,
    /// Number of tokens pushed so far.
    token_count: usize,
    /// When `true`, [`Sequitur::push`] records every change to the
    /// transitive occurrence-span multiset in `deltas`.
    track: bool,
    /// Pending [`OccDelta`]s since the last [`Sequitur::take_deltas`].
    deltas: Vec<OccDelta>,
    /// Scratch stack of `emit_delta`'s ownership-chain walk: `(rule,
    /// token offset)` frames, empty between calls and kept only so the
    /// walk reuses its allocation.
    walk: Vec<(u32, usize)>,
}

impl Default for Sequitur {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequitur {
    /// Creates an empty grammar (rule `R0` with an empty body).
    pub fn new() -> Self {
        let mut s = Sequitur {
            nodes: Vec::new(),
            free: Vec::new(),
            rules: Vec::new(),
            digrams: FxHashMap::default(),
            underused: Vec::new(),
            token_count: 0,
            track: false,
            deltas: Vec::new(),
            walk: Vec::new(),
        };
        s.new_rule(); // rule 0 = S
        s
    }

    /// Enables or disables occurrence-delta tracking.
    ///
    /// While enabled, every [`push`](Sequitur::push) appends the net
    /// changes to the transitive occurrence-span multiset to an
    /// internal buffer, drained by [`take_deltas`](Sequitur::take_deltas).
    /// Tracking must be switched on while the caller's derived state
    /// (e.g. a density curve) matches the engine's current
    /// [`occurrences`](Sequitur::occurrences) — from then on, folding
    /// the drained deltas keeps it exactly in sync. Disabling discards
    /// any pending deltas.
    pub fn set_delta_tracking(&mut self, on: bool) {
        self.track = on;
        if !on {
            self.deltas.clear();
        }
    }

    /// Whether occurrence-delta tracking is enabled.
    pub fn delta_tracking(&self) -> bool {
        self.track
    }

    /// Takes the occurrence deltas accumulated since the last call
    /// (empty unless [`set_delta_tracking`](Sequitur::set_delta_tracking)
    /// is on). Applying them — in any order — to the span multiset as
    /// of the previous drain yields exactly the current
    /// [`occurrences`](Sequitur::occurrences) span multiset.
    pub fn take_deltas(&mut self) -> Vec<OccDelta> {
        std::mem::take(&mut self.deltas)
    }

    /// Number of tokens consumed so far.
    pub fn token_count(&self) -> usize {
        self.token_count
    }

    /// Number of slab slots currently allocated (live nodes plus
    /// free-list holes) — cheap accessor for memory-bound assertions on
    /// streaming workloads.
    pub fn slab_len(&self) -> usize {
        self.nodes.len()
    }

    /// Capacity (in nodes) retained by the slab allocation.
    pub fn slab_capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Resets the engine to the empty grammar (rule `R0` with an empty
    /// body), **reusing the slab, table, and rule-record allocations**.
    ///
    /// This is the eviction-replay entry point of the streaming
    /// detector: grammar induction is order-dependent, so after a front
    /// eviction the grammar of the surviving token suffix must be
    /// re-derived from scratch — every rule whose occurrences lay in
    /// (or straddled) the retired region simply ceases to exist, and
    /// rules over the suffix re-form as the replay pushes tokens.
    /// Because the slab index sequence restarts exactly as in
    /// [`Sequitur::new`], a cleared-and-replayed engine is
    /// state-identical to a fresh one fed the same tokens (modulo
    /// retained capacity), which keeps the replay on the bitwise batch
    /// path.
    ///
    /// Clearing also **rebases the delta cursor**: pending
    /// [`OccDelta`]s refer to the retired token coordinates, so they
    /// are dropped (the tracking flag itself survives). A delta
    /// consumer must likewise reset its derived state to the empty
    /// baseline — the replay's deltas then rebuild it from zero.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.rules.clear();
        self.digrams.clear();
        self.underused.clear();
        self.token_count = 0;
        self.deltas.clear();
        self.new_rule();
    }

    // ------------------------------------------------------------------
    // Slab plumbing
    // ------------------------------------------------------------------

    fn alloc(&mut self, kind: Kind) -> u32 {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = Node::blank(kind);
            id
        } else {
            let id = self.nodes.len() as u32;
            assert!(id < NIL, "sequitur node arena exhausted");
            self.nodes.push(Node::blank(kind));
            id
        }
    }

    fn release(&mut self, i: u32) {
        self.nodes[i as usize].kind = Kind::Free;
        self.free.push(i);
    }

    #[inline]
    fn next(&self, i: u32) -> u32 {
        self.nodes[i as usize].next
    }

    #[inline]
    fn prev(&self, i: u32) -> u32 {
        self.nodes[i as usize].prev
    }

    #[inline]
    fn is_guard(&self, i: u32) -> bool {
        matches!(self.nodes[i as usize].kind, Kind::Guard { .. })
    }

    /// Symbol of node `i`, or `None` for guards.
    #[inline]
    fn sym(&self, i: u32) -> Option<Sym> {
        match self.nodes[i as usize].kind {
            Kind::Sym(s) => Some(s),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Rule and occurrence bookkeeping
    // ------------------------------------------------------------------

    fn new_rule(&mut self) -> u32 {
        let rule = self.rules.len() as u32;
        let guard = self.alloc(Kind::Guard { rule });
        self.nodes[guard as usize].prev = guard;
        self.nodes[guard as usize].next = guard;
        self.rules.push(RuleRec {
            guard,
            occ_head: NIL,
            uses: 0,
            exp_len: 0,
        });
        rule
    }

    /// Terminal expansion length of one symbol.
    #[inline]
    fn sym_exp_len(&self, s: Sym) -> usize {
        match s {
            Sym::T(_) => 1,
            Sym::R(r) => self.rules[r as usize].exp_len,
        }
    }

    /// Creates an occurrence node for `sym`, registering rule usage.
    fn make_sym_node(&mut self, sym: Sym) -> u32 {
        let n = self.alloc(Kind::Sym(sym));
        if let Sym::R(r) = sym {
            let head = self.rules[r as usize].occ_head;
            self.nodes[n as usize].occ_next = head;
            if head != NIL {
                self.nodes[head as usize].occ_prev = n;
            }
            self.rules[r as usize].occ_head = n;
            self.rules[r as usize].uses += 1;
        }
        n
    }

    /// Unregisters a rule occurrence (node about to be destroyed).
    fn deuse(&mut self, n: u32, r: u32) {
        let (op, on) = {
            let nd = &self.nodes[n as usize];
            (nd.occ_prev, nd.occ_next)
        };
        if op != NIL {
            self.nodes[op as usize].occ_next = on;
        } else {
            self.rules[r as usize].occ_head = on;
        }
        if on != NIL {
            self.nodes[on as usize].occ_prev = op;
        }
        let rec = &mut self.rules[r as usize];
        rec.uses -= 1;
        if rec.uses == 1 {
            self.underused.push(r);
        }
    }

    // ------------------------------------------------------------------
    // Digram table
    // ------------------------------------------------------------------

    /// Key of the digram starting at `i`, if both members are symbols.
    #[inline]
    fn digram_key(&self, i: u32) -> Option<(Sym, Sym)> {
        let a = self.sym(i)?;
        let b = self.sym(self.next(i))?;
        Some((a, b))
    }

    /// Removes the table entry for the digram starting at `i`, but only if
    /// the table actually points at `i`.
    fn delete_digram(&mut self, i: u32) {
        if let Some(key) = self.digram_key(i) {
            if self.digrams.get(&key) == Some(&i) {
                self.digrams.remove(&key);
            }
        }
    }

    /// Links `left → right`, maintaining digram-table consistency. Ports
    /// the reference `join`, including the same-symbol-triple repair that
    /// keeps runs like `aaa` from losing their table entries.
    fn join(&mut self, left: u32, right: u32) {
        if self.nodes[left as usize].next != NIL {
            self.delete_digram(left);

            // Triple repair: if `right` sits inside a run of equal symbols,
            // re-register the digram starting at `right`.
            {
                let rp = self.prev(right);
                let rn = self.next(right);
                if rp != NIL && rn != NIL {
                    if let (Some(v), Some(vp), Some(vn)) =
                        (self.sym(right), self.sym(rp), self.sym(rn))
                    {
                        if v == vp && v == vn {
                            self.digrams.insert((v, v), right);
                        }
                    }
                }
            }
            // Symmetric repair around `left`.
            {
                let lp = self.prev(left);
                let ln = self.next(left);
                if lp != NIL && ln != NIL {
                    if let (Some(v), Some(vp), Some(vn)) =
                        (self.sym(left), self.sym(lp), self.sym(ln))
                    {
                        if v == vp && v == vn {
                            self.digrams.insert((v, v), lp);
                        }
                    }
                }
            }
        }
        self.nodes[left as usize].next = right;
        self.nodes[right as usize].prev = left;
    }

    fn insert_after(&mut self, x: u32, y: u32) {
        let xn = self.next(x);
        self.join(y, xn);
        self.join(x, y);
    }

    /// Destroys node `i`: splices it out, cleans its digram entry, and
    /// de-registers a rule occurrence if applicable.
    fn delete_node(&mut self, i: u32) {
        let p = self.prev(i);
        let n = self.next(i);
        self.join(p, n);
        if let Some(sym) = self.sym(i) {
            self.delete_digram(i);
            if let Sym::R(r) = sym {
                self.deuse(i, r);
            }
        }
        self.release(i);
    }

    // ------------------------------------------------------------------
    // Core algorithm
    // ------------------------------------------------------------------

    /// Appends one terminal token and restores the grammar constraints.
    pub fn push(&mut self, token: u32) {
        self.token_count += 1;
        assert!(
            self.token_count <= u32::MAX as usize,
            "token position exceeds u32 range"
        );
        self.rules[0].exp_len += 1;
        let guard = self.rules[0].guard;
        let last = self.prev(guard);
        let n = self.make_sym_node(Sym::T(token));
        // Root-body positions are absolute token indices (owner 0 is
        // Node::blank's default).
        self.nodes[n as usize].pos = (self.token_count - 1) as u32;
        self.insert_after(last, n);
        if last != guard {
            self.check(last);
        }
        self.drain_underused();
    }

    /// Examines the digram starting at `i`. Returns `true` when the digram
    /// already existed in the table (whether or not a substitution
    /// happened).
    fn check(&mut self, i: u32) -> bool {
        if self.is_guard(i) || self.is_guard(self.next(i)) {
            return false;
        }
        let key = match self.digram_key(i) {
            Some(k) => k,
            None => return false,
        };
        match self.digrams.get(&key) {
            None => {
                self.digrams.insert(key, i);
                false
            }
            Some(&m) => {
                debug_assert_ne!(m, i, "digram table points at a just-formed digram");
                // Overlapping occurrence (e.g. `aaa`): do nothing.
                if self.next(m) != i {
                    self.process_match(i, m);
                }
                true
            }
        }
    }

    /// Handles a repeated digram: `ss` is the new occurrence, `m` the one
    /// recorded in the table.
    fn process_match(&mut self, ss: u32, m: u32) {
        let r;
        if self.is_guard(self.prev(m)) && self.is_guard(self.next(self.next(m))) {
            // `m` is the entire body of an existing rule: reuse it.
            r = match self.nodes[self.prev(m) as usize].kind {
                Kind::Guard { rule } => rule,
                _ => unreachable!("prev(m) tested as guard"),
            };
            self.substitute(ss, r);
        } else {
            // Create a new rule from the digram's symbols.
            let s1 = self.sym(ss).expect("digram member is a symbol");
            let s2 = self.sym(self.next(ss)).expect("digram member is a symbol");
            let l1 = self.sym_exp_len(s1);
            r = self.new_rule();
            self.rules[r as usize].exp_len = l1 + self.sym_exp_len(s2);
            let guard = self.rules[r as usize].guard;
            // Building the body changes no transitive span: the rule
            // has zero occurrences until the substitutions below.
            let c1 = self.make_sym_node(s1);
            self.nodes[c1 as usize].owner = r;
            self.insert_after(guard, c1);
            let c2 = self.make_sym_node(s2);
            self.nodes[c2 as usize].pos = l1 as u32;
            self.nodes[c2 as usize].owner = r;
            self.insert_after(c1, c2);
            self.substitute(m, r);
            self.substitute(ss, r);
            // The rule body is now the canonical location of this digram.
            self.digrams.insert((s1, s2), c1);
        }
        self.drain_underused();
    }

    /// Records one span change of length `len` at `pos` within `owner`'s
    /// body, fanned out over every **transitive** occurrence of `owner`.
    ///
    /// The walk goes *up* the ownership chain (occurrence node →
    /// containing rule → its occurrences …) on the engine's reused
    /// stack, one frame per path prefix, and pushes each delta straight
    /// into the buffer when a path reaches the root (whose sole
    /// "occurrence" starts at 0; root-body node positions are
    /// absolute). Rule utility keeps every live non-root rule used at
    /// least twice (outside the brief window before an underused rule
    /// is inlined), so the paths branch at every level and the frames
    /// stay within a small multiple of the deltas: the cost is
    /// proportional to the changed coverage, never the series length,
    /// and nothing is allocated once the stack and buffer have grown.
    fn emit_delta(&mut self, owner: u32, pos: u32, len: usize, created: bool) {
        let Self {
            nodes,
            rules,
            deltas,
            walk,
            ..
        } = self;
        walk.push((owner, pos as usize));
        while let Some((rule, at)) = walk.pop() {
            if rule == 0 {
                deltas.push(OccDelta {
                    start: at,
                    len,
                    created,
                });
                continue;
            }
            let mut occ = rules[rule as usize].occ_head;
            while occ != NIL {
                let node = &nodes[occ as usize];
                walk.push((node.owner, at + node.pos as usize));
                occ = node.occ_next;
            }
        }
    }

    /// Replaces the digram starting at `i` with a reference to rule `r`.
    fn substitute(&mut self, i: u32, r: u32) {
        let q = self.prev(i);
        let second = self.next(i);
        // Net-delta accounting: this is the only operation that adds a
        // transitive span. The two replaced symbols keep their spans
        // (if rule references, they recur inside `r`'s body at the
        // same absolute positions), so the net change is exactly one
        // new `r`-span per transitive occurrence of the body being
        // edited — emitted before the structure changes, while the
        // ownership chain is still consistent.
        let (pos, owner) = {
            let nd = &self.nodes[i as usize];
            (nd.pos, nd.owner)
        };
        if self.track {
            let len = self.rules[r as usize].exp_len;
            self.emit_delta(owner, pos, len, true);
        }
        self.delete_node(second);
        self.delete_node(i);
        let n = self.make_sym_node(Sym::R(r));
        self.nodes[n as usize].pos = pos;
        self.nodes[n as usize].owner = owner;
        self.insert_after(q, n);
        if !self.check(q) {
            let qn = self.next(q);
            self.check(qn);
        }
    }

    /// Expands rules whose use count has dropped to one (rule utility).
    fn drain_underused(&mut self) {
        while let Some(r) = self.underused.pop() {
            let rec = self.rules[r as usize];
            if rec.guard == NIL || rec.uses != 1 {
                continue; // already dead, or re-used since being queued
            }
            let occ = rec.occ_head;
            debug_assert_ne!(occ, NIL, "uses == 1 but no occurrence recorded");
            self.expand(occ, r);
        }
    }

    /// Inlines rule `r`'s body at its sole remaining occurrence `n` and
    /// deletes the rule.
    fn expand(&mut self, n: u32, r: u32) {
        let left = self.prev(n);
        let right = self.next(n);
        let guard = self.rules[r as usize].guard;
        let first = self.next(guard);
        let last = self.prev(guard);
        debug_assert!(first != guard, "expanding an empty rule");

        // Net-delta accounting: inlining destroys exactly the
        // `r`-span(s) at this sole occurrence; the spliced body symbols
        // keep their transitive spans (their positions are rebased
        // below so absolute starts are unchanged). Emit before any
        // structural edit.
        let (n_pos, n_owner) = {
            let nd = &self.nodes[n as usize];
            (nd.pos, nd.owner)
        };
        if self.track {
            let len = self.rules[r as usize].exp_len;
            self.emit_delta(n_owner, n_pos, len, false);
        }
        // Rebase the spliced body into the parent's coordinates: each
        // body node's offset becomes relative to the parent body, and
        // its owner becomes the parent rule.
        let mut cur = first;
        loop {
            self.nodes[cur as usize].pos += n_pos;
            self.nodes[cur as usize].owner = n_owner;
            if cur == last {
                break;
            }
            cur = self.next(cur);
        }

        // The digram (n, right) is about to disappear.
        self.delete_digram(n);
        // (left, n) is cleaned inside join(left, first).
        self.join(left, first);
        self.join(last, right);

        // Register the digram that now starts at `last`. The reference
        // implementation overwrites unconditionally; a pre-existing entry
        // elsewhere only costs a missed match, never incorrectness.
        if let Some(key) = self.digram_key(last) {
            self.digrams.insert(key, last);
        }

        // Kill the rule: the occurrence node and guard are recycled; the
        // rule record is tombstoned.
        self.rules[r as usize].guard = NIL;
        self.rules[r as usize].occ_head = NIL;
        self.rules[r as usize].uses = 0;
        self.release(n);
        self.release(guard);
    }

    // ------------------------------------------------------------------
    // Extraction
    // ------------------------------------------------------------------

    /// Enumerates every transitive occurrence of every live non-root
    /// rule over the token sequence pushed so far — **without**
    /// consuming or copying the grammar.
    ///
    /// This is the incremental-accounting entry point for streaming
    /// density maintenance: after each batch of
    /// [`push`](Sequitur::push)es, a caller can re-enumerate rule
    /// coverage straight off the live slab, paying only the derivation
    /// walk (`O(token count)`) instead of a full
    /// [`into_grammar`](Sequitur::into_grammar) extraction (rule-body
    /// materialization + dense renumbering). The walk uses the
    /// incrementally maintained per-rule expansion lengths, so no
    /// bottom-up recomputation happens either.
    ///
    /// The reported [`RuleOccurrence::rule`] ids are **engine** rule
    /// ids (the root is 0 and never reported; dead rules leave gaps),
    /// not the dense ids of an extracted [`Grammar`] — but the
    /// `(start, len)` span multiset is identical to
    /// [`Grammar::occurrences`] on the extracted grammar, which is the
    /// part rule-density construction consumes (property-tested).
    pub fn occurrences(&self) -> Vec<RuleOccurrence> {
        let mut out = Vec::new();
        let root_guard = self.rules[0].guard;
        // Frames: (node to visit, guard of the body it belongs to,
        // absolute token position of the node).
        let mut stack: Vec<(u32, u32, usize)> = vec![(self.next(root_guard), root_guard, 0)];
        while let Some((node, guard, at)) = stack.pop() {
            if node == guard {
                continue;
            }
            match self.sym(node).expect("rule bodies contain only symbols") {
                Sym::T(_) => stack.push((self.next(node), guard, at + 1)),
                Sym::R(q) => {
                    let len = self.rules[q as usize].exp_len;
                    debug_assert!(len >= 2, "non-root rule expands to >= 2 terminals");
                    out.push(RuleOccurrence {
                        rule: q,
                        start: at,
                        len,
                    });
                    stack.push((self.next(node), guard, at + len));
                    let g = self.rules[q as usize].guard;
                    debug_assert_ne!(g, NIL, "live body references a dead rule");
                    stack.push((self.next(g), g, at));
                }
            }
        }
        out
    }

    /// Extracts an immutable [`Grammar`] snapshot (densely renumbered
    /// rules, dead rules dropped, `R0` first) without consuming the
    /// engine — induction can continue afterwards.
    pub fn to_grammar(&self) -> Grammar {
        // Dense renumbering of live rules.
        let mut remap: Vec<u32> = vec![u32::MAX; self.rules.len()];
        let mut live = 0u32;
        for (id, rec) in self.rules.iter().enumerate() {
            if rec.guard != NIL {
                remap[id] = live;
                live += 1;
            }
        }

        let mut rules = Vec::with_capacity(live as usize);
        for (id, rec) in self.rules.iter().enumerate() {
            if rec.guard == NIL {
                continue;
            }
            let mut body = Vec::new();
            let mut cur = self.next(rec.guard);
            while cur != rec.guard {
                match self.sym(cur).expect("rule bodies contain only symbols") {
                    Sym::T(t) => body.push(Symbol::Terminal(t)),
                    Sym::R(r) => {
                        let dense = remap[r as usize];
                        debug_assert_ne!(dense, u32::MAX, "reference to dead rule {r}");
                        body.push(Symbol::Rule(dense));
                    }
                }
                cur = self.next(cur);
            }
            rules.push(GrammarRule {
                body,
                uses: if id == 0 { 0 } else { rec.uses as usize },
                expansion_len: 0, // filled by Grammar::finalize
            });
        }
        Grammar::finalize(rules, self.token_count)
    }

    /// Finalizes induction and converts the internal state into an
    /// immutable [`Grammar`] with densely renumbered rules (dead rules
    /// dropped, `R0` first).
    pub fn into_grammar(self) -> Grammar {
        self.to_grammar()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::induce;

    /// Paper Table 2: SNR = ab,bc,aa,cc,ca,ab,bc,aa with interning
    /// ab=0, bc=1, aa=2, cc=3, ca=4 yields S → R,cc,ca,R ; R → ab,bc,aa.
    #[test]
    fn paper_table2_example() {
        let g = induce([0u32, 1, 2, 3, 4, 0, 1, 2]);
        assert_eq!(g.rule_count(), 2, "expected R0 plus exactly one rule");
        let root = &g.rules[0];
        assert_eq!(
            root.body,
            vec![
                Symbol::Rule(1),
                Symbol::Terminal(3),
                Symbol::Terminal(4),
                Symbol::Rule(1)
            ]
        );
        let r1 = &g.rules[1];
        assert_eq!(
            r1.body,
            vec![
                Symbol::Terminal(0),
                Symbol::Terminal(1),
                Symbol::Terminal(2)
            ]
        );
        assert_eq!(r1.uses, 2);
        assert_eq!(r1.expansion_len, 3);
    }

    /// Section 3.2 example: S = aa,bb,cc,xx,aa,bb,cc → R1 = aa,bb,cc and
    /// the incompressible xx stays a terminal in R0.
    #[test]
    fn paper_section32_example() {
        // aa=0, bb=1, cc=2, xx=3.
        let g = induce([0u32, 1, 2, 3, 0, 1, 2]);
        assert_eq!(g.rule_count(), 2);
        assert_eq!(
            g.rules[0].body,
            vec![Symbol::Rule(1), Symbol::Terminal(3), Symbol::Rule(1)]
        );
        assert_eq!(
            g.rules[1].body,
            vec![
                Symbol::Terminal(0),
                Symbol::Terminal(1),
                Symbol::Terminal(2)
            ]
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let g = induce(std::iter::empty());
        assert_eq!(g.rule_count(), 1);
        assert!(g.rules[0].body.is_empty());
        assert_eq!(g.expand_root(), Vec::<u32>::new());

        let g = induce([7u32]);
        assert_eq!(g.rule_count(), 1);
        assert_eq!(g.expand_root(), vec![7]);
    }

    #[test]
    fn no_repeats_creates_no_rules() {
        let g = induce(0u32..20);
        assert_eq!(g.rule_count(), 1);
        assert_eq!(g.expand_root(), (0u32..20).collect::<Vec<_>>());
    }

    #[test]
    fn abab_forms_one_rule() {
        let g = induce([0u32, 1, 0, 1]);
        assert_eq!(g.rule_count(), 2);
        assert_eq!(g.rules[0].body, vec![Symbol::Rule(1), Symbol::Rule(1)]);
        assert_eq!(g.expand_root(), vec![0, 1, 0, 1]);
    }

    #[test]
    fn run_of_identical_tokens_is_handled() {
        // The classic `aaaa...` stress: overlapping digrams must not
        // corrupt the grammar.
        for len in 2..40usize {
            let input = vec![5u32; len];
            let g = induce(input.clone());
            assert_eq!(g.expand_root(), input, "run length {len}");
            g.verify().unwrap_or_else(|e| panic!("len {len}: {e}"));
        }
    }

    #[test]
    fn nested_repetition_compresses_hierarchically() {
        // (ab)^8: expect nested rules, root much shorter than input.
        let mut input = Vec::new();
        for _ in 0..8 {
            input.extend_from_slice(&[0u32, 1]);
        }
        let g = induce(input.clone());
        assert_eq!(g.expand_root(), input);
        assert!(
            g.rules[0].body.len() <= 4,
            "root body: {:?}",
            g.rules[0].body
        );
        g.verify().unwrap();
    }

    #[test]
    fn rule_reuse_branch_is_exercised() {
        // abcdbc: digram bc repeats, rule created; then abcd again forces
        // reuse of existing full-body rule.
        let g = induce([0u32, 1, 2, 3, 1, 2, 0, 1, 2, 3, 1, 2]);
        assert_eq!(g.expand_root(), vec![0, 1, 2, 3, 1, 2, 0, 1, 2, 3, 1, 2]);
        g.verify().unwrap();
    }

    #[test]
    fn all_rules_used_at_least_twice() {
        let input: Vec<u32> = (0..200).map(|i| (i % 7) as u32).collect();
        let g = induce(input.clone());
        g.verify().unwrap();
        for (i, r) in g.rules.iter().enumerate().skip(1) {
            assert!(r.uses >= 2, "rule {i} used {} times", r.uses);
        }
        assert_eq!(g.expand_root(), input);
    }

    #[test]
    fn rule_bodies_have_at_least_two_symbols() {
        let input: Vec<u32> = (0..500).map(|i| ((i * i) % 11) as u32).collect();
        let g = induce(input);
        for (i, r) in g.rules.iter().enumerate().skip(1) {
            assert!(r.body.len() >= 2, "rule {i} body {:?}", r.body);
        }
    }

    /// The live-slab occurrence walk must report the same `(start, len)`
    /// span multiset as the extracted grammar's derivation walk — the
    /// part rule-density construction consumes.
    fn assert_live_occurrences_match_extracted(input: &[u32]) {
        let mut s = Sequitur::new();
        for &t in input {
            s.push(t);
        }
        let mut live: Vec<(usize, usize)> =
            s.occurrences().iter().map(|o| (o.start, o.len)).collect();
        let g = s.to_grammar();
        let mut extracted: Vec<(usize, usize)> =
            g.occurrences().iter().map(|o| (o.start, o.len)).collect();
        live.sort_unstable();
        extracted.sort_unstable();
        assert_eq!(live, extracted, "input {input:?}");
    }

    #[test]
    fn live_occurrences_match_extracted_grammar() {
        assert_live_occurrences_match_extracted(&[]);
        assert_live_occurrences_match_extracted(&[7]);
        assert_live_occurrences_match_extracted(&[0, 1, 0, 1]);
        assert_live_occurrences_match_extracted(&[0, 1, 2, 3, 4, 0, 1, 2]);
        assert_live_occurrences_match_extracted(&[5; 30]);
        let nested: Vec<u32> = (0..200).map(|i| (i % 7) as u32).collect();
        assert_live_occurrences_match_extracted(&nested);
        let quadratic: Vec<u32> = (0..300).map(|i| ((i * i) % 11) as u32).collect();
        assert_live_occurrences_match_extracted(&quadratic);
    }

    #[test]
    fn incremental_expansion_lengths_match_finalized_grammar() {
        // The engine's per-rule exp_len (maintained across pushes,
        // substitutions, and inline expansions) must agree with the
        // bottom-up recomputation Grammar::finalize performs.
        let input: Vec<u32> = (0..250).map(|i| ((i * 13) % 9) as u32).collect();
        let mut s = Sequitur::new();
        for &t in &input {
            s.push(t);
        }
        let g = s.to_grammar();
        // Recover the engine→dense remap the same way to_grammar does.
        let mut dense = 0usize;
        for rec in s.rules.iter() {
            if rec.guard != NIL {
                assert_eq!(
                    rec.exp_len, g.rules[dense].expansion_len,
                    "dense rule {dense}"
                );
                dense += 1;
            }
        }
        assert_eq!(dense, g.rule_count());
        assert_eq!(s.rules[0].exp_len, input.len());
    }

    #[test]
    fn to_grammar_snapshot_lets_induction_continue() {
        let mut s = Sequitur::new();
        for t in [0u32, 1, 0, 1] {
            s.push(t);
        }
        let snap = s.to_grammar();
        assert_eq!(snap.expand_root(), vec![0, 1, 0, 1]);
        // Keep pushing after the snapshot; the final grammar covers
        // everything, and matches a from-scratch induction.
        for t in [2u32, 0, 1, 2] {
            s.push(t);
        }
        let g = s.into_grammar();
        assert_eq!(g.expand_root(), vec![0, 1, 0, 1, 2, 0, 1, 2]);
        let fresh = induce([0u32, 1, 0, 1, 2, 0, 1, 2]);
        assert_eq!(g, fresh);
    }

    #[test]
    fn occurrences_on_empty_engine() {
        let s = Sequitur::new();
        assert!(s.occurrences().is_empty());
    }

    #[test]
    fn token_count_tracks_pushes() {
        let mut s = Sequitur::new();
        for t in [1u32, 2, 1, 2, 3] {
            s.push(t);
        }
        assert_eq!(s.token_count(), 5);
    }

    #[test]
    fn clear_resets_to_a_fresh_engine_bitwise() {
        let mut reused = Sequitur::new();
        for t in (0..300).map(|i| ((i * 7) % 12) as u32) {
            reused.push(t);
        }
        reused.clear();
        assert_eq!(reused.token_count(), 0);
        assert!(reused.occurrences().is_empty());
        // Replaying a sequence into the cleared engine yields a grammar
        // identical to a fresh induction — slab ids and all downstream
        // behavior restart exactly.
        let input: Vec<u32> = (0..200).map(|i| ((i * i) % 9) as u32).collect();
        for &t in &input {
            reused.push(t);
        }
        let fresh = induce(input.iter().copied());
        assert_eq!(reused.to_grammar(), fresh);
        assert!(reused.slab_capacity() >= reused.slab_len());
    }

    #[test]
    fn a_released_slot_is_reused_before_the_slab_grows() {
        let mut s = Sequitur::new();
        for t in [1u32, 2, 3] {
            s.push(t);
        }
        let len = s.slab_len();
        let a = s.alloc(Kind::Sym(Sym::T(7)));
        assert_eq!(s.slab_len(), len + 1);
        s.release(a);
        assert!(matches!(s.nodes[a as usize].kind, Kind::Free));
        let b = s.alloc(Kind::Sym(Sym::T(8)));
        assert_eq!(b, a);
        assert_eq!(s.slab_len(), len + 1);
        assert!(matches!(s.nodes[b as usize].kind, Kind::Sym(Sym::T(8))));
    }

    /// Rule churn frees slots (a repeated digram's nodes give way to
    /// one rule reference; an under-used rule's guard is released), and
    /// they are taken back before the slab grows: over a long periodic
    /// stream the slab tracks the live grammar, not the token count.
    #[test]
    fn rule_churn_recycles_freed_slots() {
        let inputs: [Vec<u32>; 3] = [
            vec![9; 4096],
            (0..4095).map(|i| (i % 3) as u32).collect(),
            (0..240).map(|i| ((i * 13) % 9) as u32).collect(),
        ];
        for input in inputs {
            let mut s = Sequitur::new();
            let mut peak_live = 0;
            for &t in &input {
                s.push(t);
                let live = s
                    .nodes
                    .iter()
                    .filter(|n| !matches!(n.kind, Kind::Free))
                    .count();
                // The free list names exactly the holes.
                assert_eq!(s.free.len(), s.slab_len() - live);
                peak_live = peak_live.max(live);
                assert!(
                    s.slab_len() <= 2 * peak_live,
                    "{} slots for a peak of {peak_live} live nodes",
                    s.slab_len()
                );
            }
            assert!(
                s.slab_len() <= 64,
                "{} slots after {} tokens",
                s.slab_len(),
                input.len()
            );
        }
    }

    /// Folds a batch of deltas into a span-count multiset, panicking on
    /// a destroy without a matching create.
    fn fold_deltas(
        counts: &mut std::collections::HashMap<(usize, usize), i64>,
        deltas: &[OccDelta],
    ) {
        for d in deltas {
            *counts.entry((d.start, d.len)).or_insert(0) += if d.created { 1 } else { -1 };
        }
        counts.retain(|span, &mut c| {
            assert!(c >= 0, "span {span:?} destroyed more often than created");
            c != 0
        });
    }

    /// The live span multiset from [`Sequitur::occurrences`].
    fn occurrence_counts(s: &Sequitur) -> std::collections::HashMap<(usize, usize), i64> {
        let mut counts = std::collections::HashMap::new();
        for o in s.occurrences() {
            *counts.entry((o.start, o.len)).or_insert(0) += 1;
        }
        counts
    }

    /// The tentpole differential at the engine level: after **every**
    /// push, the delta-accumulated span multiset equals the
    /// `occurrences()` span multiset exactly.
    fn assert_deltas_track_occurrences(input: &[u32]) {
        let mut s = Sequitur::new();
        s.set_delta_tracking(true);
        let mut counts = std::collections::HashMap::new();
        for (i, &t) in input.iter().enumerate() {
            s.push(t);
            fold_deltas(&mut counts, &s.take_deltas());
            assert_eq!(counts, occurrence_counts(&s), "after push {i} of {input:?}");
        }
    }

    #[test]
    fn deltas_track_occurrences_per_push() {
        assert_deltas_track_occurrences(&[]);
        assert_deltas_track_occurrences(&[7]);
        assert_deltas_track_occurrences(&[0, 1, 0, 1]);
        // Paper Table 2: rule reuse of a full body.
        assert_deltas_track_occurrences(&[0, 1, 2, 3, 4, 0, 1, 2]);
        // Overlapping-digram runs: heavy rule churn, nested expansion.
        assert_deltas_track_occurrences(&[5; 40]);
        // Substitutions that retire digrams mid-rule, and expansions at
        // utility 1 (rule churn under modular repetition).
        let nested: Vec<u32> = (0..220).map(|i| (i % 7) as u32).collect();
        assert_deltas_track_occurrences(&nested);
        let quadratic: Vec<u32> = (0..300).map(|i| ((i * i) % 11) as u32).collect();
        assert_deltas_track_occurrences(&quadratic);
        let mixed: Vec<u32> = (0..260).map(|i| ((i * 13) % 9) as u32).collect();
        assert_deltas_track_occurrences(&mixed);
    }

    #[test]
    fn deltas_rebase_across_clear() {
        let mut s = Sequitur::new();
        s.set_delta_tracking(true);
        for t in (0..150).map(|i| ((i * 7) % 12) as u32) {
            s.push(t);
        }
        assert!(!s.take_deltas().is_empty());
        for t in (0..10).map(|i| (i % 3) as u32) {
            s.push(t);
        }
        // clear() drops the pending (stale-coordinate) deltas but keeps
        // tracking on; a replay rebuilds the multiset from zero.
        s.clear();
        assert!(s.delta_tracking());
        assert!(s.take_deltas().is_empty());
        let mut counts = std::collections::HashMap::new();
        for (i, t) in (0..200).map(|i| ((i * i) % 9) as u32).enumerate() {
            s.push(t);
            fold_deltas(&mut counts, &s.take_deltas());
            assert_eq!(counts, occurrence_counts(&s), "after replay push {i}");
        }
    }

    #[test]
    fn delta_tracking_off_by_default_and_discards_when_disabled() {
        let mut s = Sequitur::new();
        assert!(!s.delta_tracking());
        for t in [0u32, 1, 0, 1] {
            s.push(t);
        }
        assert!(s.take_deltas().is_empty());
        s.set_delta_tracking(true);
        for t in [2u32, 0, 1, 2, 0, 1] {
            s.push(t);
        }
        assert!(!s.deltas.is_empty());
        s.set_delta_tracking(false);
        assert!(s.take_deltas().is_empty());
    }

    /// A fresh engine fed a live engine's tokens stands in for it: the
    /// same occurrence spans, and per further push the same deltas (as
    /// a multiset, the order a fold ignores).
    #[test]
    fn replayed_engine_continues_like_the_live_one() {
        let sorted = |deltas: Vec<OccDelta>| {
            let mut keys: Vec<_> = deltas.iter().map(|d| (d.start, d.len, d.created)).collect();
            keys.sort_unstable();
            keys
        };
        let inputs: Vec<Vec<u32>> = vec![
            (0..240).map(|i| ((i * 13) % 9) as u32).collect(),
            (0..200).map(|i| ((i * i) % 7) as u32).collect(),
            vec![4; 48],
        ];
        for input in inputs {
            for cut in [0usize, 1, input.len() / 3, input.len() - 1] {
                let mut live = Sequitur::new();
                live.set_delta_tracking(true);
                for &t in &input[..cut] {
                    live.push(t);
                }
                let live_pending = live.take_deltas();
                let mut replay = Sequitur::new();
                replay.set_delta_tracking(true);
                for &t in &input[..cut] {
                    replay.push(t);
                }
                let mut counts = std::collections::HashMap::new();
                fold_deltas(&mut counts, &replay.take_deltas());
                assert_eq!(counts, occurrence_counts(&live), "cut {cut}");
                let mut live_counts = std::collections::HashMap::new();
                fold_deltas(&mut live_counts, &live_pending);
                assert_eq!(counts, live_counts, "cut {cut}");
                for (i, &t) in input[cut..].iter().enumerate() {
                    live.push(t);
                    replay.push(t);
                    assert_eq!(
                        sorted(replay.take_deltas()),
                        sorted(live.take_deltas()),
                        "cut {cut}, push {i}"
                    );
                }
                assert_eq!(replay.to_grammar(), live.to_grammar(), "cut {cut}");
            }
        }
    }

    #[test]
    fn compresses_repetitive_input_substantially() {
        // 64 copies of a 4-token motif: grammar total size must be far
        // below the 256-token input (compressibility = regularity).
        let mut input = Vec::new();
        for _ in 0..64 {
            input.extend_from_slice(&[3u32, 1, 4, 1]);
        }
        let g = induce(input.clone());
        assert_eq!(g.expand_root(), input);
        let total: usize = g.rules.iter().map(|r| r.body.len()).sum();
        assert!(
            total < 40,
            "grammar size {total} for 256-token repetitive input"
        );
    }
}
