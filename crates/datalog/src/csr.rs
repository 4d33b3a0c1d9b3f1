//! Compact CSR storage for grounded rules — the one rule store.
//!
//! [`GroundedProgram::rules`] is a [`CompactRules`]: six flat arrays in
//! the classic compressed-sparse-row layout, per-rule scalars plus two
//! shared body pools indexed by offset ranges. At 15M rules (TC on
//! gnm(2000, 8000)) one boxed struct per rule would mean 30M separate
//! heap allocations with the body payloads scattered across the heap;
//! here the rules are six allocations, read front to back by every
//! fixpoint scan, and a clone of the store (which every copy-on-write
//! server write pays) is six `memcpy`s.
//!
//! Readers borrow one rule at a time as a [`RuleRef`]; grounding appends
//! through `CompactRules::push`, the single place a body match is split
//! into its IDB and EDB parts.
//!
//! [`GroundedProgram::rules`]: crate::ground::GroundedProgram::rules

use crate::database::FactId;
use crate::ground::BodyMatch;

/// Grounded rules in compressed-sparse-row form: six flat arrays instead
/// of one boxed struct per rule.
///
/// Scalars are narrowed to `u32` — a grounding with ≥ 2³² facts or rules
/// is far beyond the engine's memory ceiling, and the narrowing is half
/// the point: per-rule overhead is 16 bytes of scalars and offsets, and
/// body entries are 4 bytes each.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactRules {
    /// Per rule: index of the originating program rule.
    rule_index: Vec<u32>,
    /// Per rule: head fact (index into `GroundedProgram::idb_facts`).
    head: Vec<u32>,
    /// Per rule + sentinel: start of its IDB body slice in `idb_bodies`.
    idb_start: Vec<u32>,
    /// Per rule + sentinel: start of its EDB body slice in `edb_bodies`.
    edb_start: Vec<u32>,
    /// Shared pool of IDB body fact indices.
    idb_bodies: Vec<u32>,
    /// Shared pool of EDB body fact ids.
    edb_bodies: Vec<FactId>,
}

/// One grounded rule `idb_facts[head] :- idb_facts[i]…, x_{edb}…`,
/// borrowed from a [`CompactRules`] store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuleRef<'a> {
    /// Index of the originating rule in the program.
    pub rule_index: usize,
    /// Head fact (index into `GroundedProgram::idb_facts`).
    pub head: usize,
    /// IDB body facts (indices into `GroundedProgram::idb_facts`, still
    /// `u32`-narrow — widen at the use site).
    pub body_idb: &'a [u32],
    /// EDB body facts (provenance variables).
    pub body_edb: &'a [FactId],
}

impl Default for CompactRules {
    /// The empty store, sentinels included (same as [`CompactRules::new`]).
    fn default() -> Self {
        CompactRules::new()
    }
}

impl CompactRules {
    /// An empty store: no rules, and the single `0` sentinel row of each
    /// offset array that every later `push` extends.
    pub fn new() -> Self {
        CompactRules {
            rule_index: Vec::new(),
            head: Vec::new(),
            idb_start: vec![0],
            edb_start: vec![0],
            idb_bodies: Vec::new(),
            edb_bodies: Vec::new(),
        }
    }

    /// Number of rules stored.
    pub fn len(&self) -> usize {
        self.rule_index.len()
    }

    /// Whether the store holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rule_index.is_empty()
    }

    /// Append one rule straight from the grounder's body matches, in body
    /// order: IDB matches go to the IDB pool, EDB matches to the EDB pool.
    pub(crate) fn push(&mut self, rule_index: usize, head: usize, matches: &[BodyMatch]) {
        self.rule_index.push(rule_index as u32);
        self.head.push(head as u32);
        for m in matches {
            match *m {
                BodyMatch::Idb(i) => self.idb_bodies.push(i as u32),
                BodyMatch::Edb(f) => self.edb_bodies.push(f),
            }
        }
        self.idb_start.push(self.idb_bodies.len() as u32);
        self.edb_start.push(self.edb_bodies.len() as u32);
    }

    /// Append every rule of `other` after this store's rules, in order,
    /// rebasing `other`'s offsets onto the end of this store's pools.
    pub(crate) fn append(&mut self, other: &CompactRules) {
        let idb_base = self.idb_bodies.len() as u32;
        let edb_base = self.edb_bodies.len() as u32;
        self.rule_index.extend_from_slice(&other.rule_index);
        self.head.extend_from_slice(&other.head);
        self.idb_start
            .extend(other.idb_start[1..].iter().map(|&s| s + idb_base));
        self.edb_start
            .extend(other.edb_start[1..].iter().map(|&s| s + edb_base));
        self.idb_bodies.extend_from_slice(&other.idb_bodies);
        self.edb_bodies.extend_from_slice(&other.edb_bodies);
    }

    /// Keep exactly the rules for which `keep` returns `true`, compacting
    /// the arrays in place; survivors keep their relative order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(RuleRef<'_>) -> bool) {
        let (mut kept, mut idb_end, mut edb_end) = (0usize, 0usize, 0usize);
        let (mut idb_lo, mut edb_lo) = (0usize, 0usize);
        for i in 0..self.len() {
            // Safe in place: this pass writes offsets at index ≤ i + 1 and
            // pool entries below `idb_hi`/`edb_hi`; later passes read
            // offsets from i + 2 and pool entries from `idb_hi`/`edb_hi` on.
            let idb_hi = self.idb_start[i + 1] as usize;
            let edb_hi = self.edb_start[i + 1] as usize;
            let rule = RuleRef {
                rule_index: self.rule_index[i] as usize,
                head: self.head[i] as usize,
                body_idb: &self.idb_bodies[idb_lo..idb_hi],
                body_edb: &self.edb_bodies[edb_lo..edb_hi],
            };
            if keep(rule) {
                self.rule_index[kept] = self.rule_index[i];
                self.head[kept] = self.head[i];
                self.idb_bodies.copy_within(idb_lo..idb_hi, idb_end);
                self.edb_bodies.copy_within(edb_lo..edb_hi, edb_end);
                idb_end += idb_hi - idb_lo;
                edb_end += edb_hi - edb_lo;
                kept += 1;
                self.idb_start[kept] = idb_end as u32;
                self.edb_start[kept] = edb_end as u32;
            }
            idb_lo = idb_hi;
            edb_lo = edb_hi;
        }
        self.rule_index.truncate(kept);
        self.head.truncate(kept);
        self.idb_start.truncate(kept + 1);
        self.edb_start.truncate(kept + 1);
        self.idb_bodies.truncate(idb_end);
        self.edb_bodies.truncate(edb_end);
    }

    /// Rule `i`, borrowed. Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> RuleRef<'_> {
        RuleRef {
            rule_index: self.rule_index[i] as usize,
            head: self.head[i] as usize,
            body_idb: &self.idb_bodies[self.idb_start[i] as usize..self.idb_start[i + 1] as usize],
            body_edb: &self.edb_bodies[self.edb_start[i] as usize..self.edb_start[i + 1] as usize],
        }
    }

    /// Every rule in store order, borrowed.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RuleRef<'_>> + '_ {
        self.rule_index
            .iter()
            .zip(&self.head)
            .zip(self.idb_start.windows(2).zip(self.edb_start.windows(2)))
            .map(|((&rule_index, &head), (idb, edb))| RuleRef {
                rule_index: rule_index as usize,
                head: head as usize,
                body_idb: &self.idb_bodies[idb[0] as usize..idb[1] as usize],
                body_edb: &self.edb_bodies[edb[0] as usize..edb[1] as usize],
            })
    }

    /// Body atoms over all rules (IDB plus EDB): with [`len`](Self::len),
    /// the grounded program's size, read off the pool lengths in O(1).
    pub fn body_atoms(&self) -> usize {
        self.idb_bodies.len() + self.edb_bodies.len()
    }

    /// Heap bytes held by the six arrays (capacity not counted — this is
    /// the payload measure the bench reports).
    pub fn heap_bytes(&self) -> usize {
        self.rule_index.len() * 4
            + self.head.len() * 4
            + self.idb_start.len() * 4
            + self.edb_start.len() * 4
            + self.idb_bodies.len() * 4
            + self.edb_bodies.len() * std::mem::size_of::<FactId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One rule of the plain reference model the CSR store must agree
    /// with: `(rule_index, head, body_idb, body_edb)`.
    type ModelRule = (usize, usize, Vec<u32>, Vec<FactId>);

    /// Body matches for a model rule, interleaving IDB and EDB entries so
    /// the split in [`CompactRules::push`] is exercised, not bypassed.
    fn matches(r: &ModelRule) -> Vec<BodyMatch> {
        let (idb, edb) = (&r.2, &r.3);
        let mut out = Vec::new();
        for k in 0..idb.len().max(edb.len()) {
            if let Some(&f) = edb.get(k) {
                out.push(BodyMatch::Edb(f));
            }
            if let Some(&i) = idb.get(k) {
                out.push(BodyMatch::Idb(i as usize));
            }
        }
        out
    }

    fn build(model: &[ModelRule]) -> CompactRules {
        let mut csr = CompactRules::new();
        for r in model {
            csr.push(r.0, r.1, &matches(r));
        }
        csr
    }

    fn owned(r: RuleRef<'_>) -> ModelRule {
        (
            r.rule_index,
            r.head,
            r.body_idb.to_vec(),
            r.body_edb.to_vec(),
        )
    }

    fn unpack(csr: &CompactRules) -> Vec<ModelRule> {
        csr.iter().map(owned).collect()
    }

    /// A small model with the shapes groundings produce: empty IDB bodies
    /// (the TC base rule), multi-IDB bodies, and an all-IDB body.
    fn model() -> Vec<ModelRule> {
        vec![
            (0, 0, vec![], vec![4]),
            (1, 1, vec![0], vec![7]),
            (0, 2, vec![], vec![5]),
            (2, 1, vec![0, 2], vec![8, 9]),
            (3, 3, vec![1, 1], vec![]),
            (1, 2, vec![3], vec![6]),
        ]
    }

    #[test]
    fn push_and_readers_agree_with_the_model() {
        let model = model();
        let csr = build(&model);
        assert_eq!(csr.len(), model.len());
        assert_eq!(unpack(&csr), model);
        for (i, r) in model.iter().enumerate() {
            assert_eq!(&owned(csr.get(i)), r);
        }
        let atoms: usize = model.iter().map(|r| r.2.len() + r.3.len()).sum();
        assert_eq!(csr.body_atoms(), atoms);
    }

    #[test]
    fn empty_store_is_coherent() {
        let csr = CompactRules::new();
        assert!(csr.is_empty());
        assert_eq!(csr.len(), 0);
        assert_eq!(csr.iter().count(), 0);
        assert_eq!(csr.body_atoms(), 0);
        assert!(csr.heap_bytes() >= 8); // the two sentinels
    }

    #[test]
    fn default_is_the_empty_store_with_sentinels() {
        // A derived `Default` would leave the offset arrays without their
        // `0` sentinel: the first push would then record rule 0's *end*
        // offset as its start, shifting every body by one rule.
        assert_eq!(CompactRules::default(), CompactRules::new());
        let mut csr = CompactRules::default();
        csr.push(0, 0, &[BodyMatch::Edb(3)]);
        csr.push(1, 1, &[BodyMatch::Idb(0), BodyMatch::Edb(4)]);
        assert_eq!(
            unpack(&csr),
            vec![(0, 0, vec![], vec![3]), (1, 1, vec![0], vec![4])]
        );
    }

    #[test]
    fn append_in_task_order_rebases_offsets() {
        let model = model();
        // Every split into consecutive chunks, empty chunks included,
        // must concatenate back to the one-store build.
        for cut1 in 0..=model.len() {
            for cut2 in cut1..=model.len() {
                let mut joined = CompactRules::new();
                for chunk in [&model[..cut1], &model[cut1..cut2], &model[cut2..]] {
                    joined.append(&build(chunk));
                }
                assert_eq!(joined, build(&model), "cuts {cut1}/{cut2}");
            }
        }
        let mut empty = CompactRules::new();
        empty.append(&CompactRules::new());
        assert_eq!(empty, CompactRules::new());
    }

    #[test]
    fn retain_compacts_in_place_like_the_model() {
        let model = model();
        let keeps: [fn(&ModelRule) -> bool; 6] = [
            |_| true,
            |_| false,
            |r| r.3.contains(&7) || r.3.contains(&9),
            |r| !r.3.contains(&4),
            |r| r.2.is_empty(),
            |r| r.1 != 1,
        ];
        for (k, keep) in keeps.iter().enumerate() {
            let mut csr = build(&model);
            let mut seen = Vec::new();
            csr.retain(|r| {
                seen.push(owned(r));
                keep(&owned(r))
            });
            // `keep` sees every rule exactly once, in store order.
            assert_eq!(seen, model, "predicate {k}");
            let expected: Vec<ModelRule> = model.iter().filter(|r| keep(r)).cloned().collect();
            assert_eq!(unpack(&csr), expected, "predicate {k}");
            // Compacted, not just re-indexed: equal to a fresh build.
            assert_eq!(csr, build(&expected), "predicate {k}");
        }
        let mut empty = CompactRules::new();
        empty.retain(|_| true);
        assert_eq!(empty, CompactRules::new());
    }
}
