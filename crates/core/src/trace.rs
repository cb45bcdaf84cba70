//! Dynamic instruction traces.
//!
//! The timing cores are trace-driven: the functional executor records the
//! committed (correct-path) instruction stream, and the timing models replay
//! it while modelling speculation — a mispredicted branch stalls fetch until
//! the branch resolves in the core, then charges the configured front-end
//! refill penalty. Wrong-path instructions are not executed (see DESIGN.md).

/// One committed dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Static instruction index.
    pub idx: u32,
    /// Index of the next dynamic instruction.
    pub next_idx: u32,
    /// Effective address for memory operations, `0` otherwise.
    pub addr: u64,
    /// Whether a control transfer was taken.
    pub taken: bool,
}

/// A pull-based supplier of the committed stream. The timing engine reads
/// it through a fetch window of bounded size, refilled in chunks, so a
/// source that produces entries on demand keeps the full tier's memory
/// independent of run length.
pub trait TraceSource {
    /// Appends up to `max` of the next entries to `out`. Appending none
    /// means the stream has ended.
    fn fill(&mut self, out: &mut Vec<TraceEntry>, max: usize);
}

/// Entries [`for_each_entry`] pulls per fill.
const WALK_CHUNK: usize = 1 << 16;

/// Feeds every entry `source` supplies to `visit`, in order, pulling it in
/// chunks so that memory stays bounded whatever the stream's length: the
/// one loop behind every consumer that folds a stream instead of timing it.
pub fn for_each_entry(source: &mut dyn TraceSource, mut visit: impl FnMut(&TraceEntry)) {
    let mut chunk = Vec::with_capacity(WALK_CHUNK);
    loop {
        chunk.clear();
        source.fill(&mut chunk, WALK_CHUNK);
        if chunk.is_empty() {
            return;
        }
        chunk.iter().for_each(&mut visit);
    }
}

/// A materialized trace is a source: each fill copies the next entries out
/// of the slice and advances it.
impl TraceSource for &[TraceEntry] {
    fn fill(&mut self, out: &mut Vec<TraceEntry>, max: usize) {
        let (head, rest) = self.split_at(max.min(self.len()));
        out.extend_from_slice(head);
        *self = rest;
    }
}

/// A committed dynamic instruction stream.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Entries in execution order.
    pub entries: Vec<TraceEntry>,
}

impl Trace {
    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use crate::functional::Machine;
    use braid_isa::asm::assemble;

    #[test]
    fn trace_mirrors_execution() {
        let p = assemble(
            r#"
                addi r0, #3, r1
            loop:
                subi r1, #1, r1
                bne  r1, loop
                halt
            "#,
        )
        .unwrap();
        let mut m = Machine::new(&p);
        let t = m.run(&p, 1000).unwrap();
        assert_eq!(t.len(), 1 + 3 * 2 + 1);
        // The bne is taken twice, not taken once.
        let takens: Vec<bool> =
            t.entries.iter().filter(|e| e.idx == 2).map(|e| e.taken).collect();
        assert_eq!(takens, vec![true, true, false]);
    }
}
