//! Schedules: the serialized form of one explored execution.
//!
//! A schedule is a sequence of [`Step`]s — the checker's action
//! alphabet over the composed system (packet deliveries, stage-split
//! suspensions, response deliveries, losses and logical-clock ticks).
//! Copy and response identifiers are assigned deterministically during
//! execution, so a rendered schedule replays bit-identically on a fresh
//! [`crate::System`]: that is what lets shrunk counterexamples land in
//! `tests/corpus/` as plain text files.

use ncl_ir::hash::StableHasher;

/// One scheduling decision of the checker.
///
/// The derived `Ord` is the canonical exploration order: every
/// enumeration of enabled steps, the BFS used for shrinking, and the
/// lexicographic tie-break of minimal witnesses all use it, which is
/// why shrinking is deterministic regardless of discovery order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Step {
    /// Deliver data copy `c<id>` to the switch and run the full
    /// pipeline atomically.
    Deliver(u32),
    /// Begin delivering data copy `c<id>` but suspend it after logical
    /// stage `stage` (exclusive), modeling a packet mid-recirculation.
    Split(u32, u32),
    /// Run the suspended packet's remaining stages to completion.
    Resume,
    /// Deliver response copy `r<id>` to its host (NCP-R ack-by-response
    /// plus receiver dedup).
    DeliverResp(u32),
    /// The network loses data copy `c<id>`.
    DropData(u32),
    /// The network loses response copy `r<id>`.
    DropResp(u32),
    /// Advance the logical clock to the earliest sender RTO deadline,
    /// firing retransmissions (the duplication source).
    Tick,
}

impl Step {
    /// Renders the step in the one-line schedule syntax.
    pub fn render(&self) -> String {
        match self {
            Step::Deliver(c) => format!("deliver c{c}"),
            Step::Split(c, k) => format!("split c{c}@{k}"),
            Step::Resume => "resume".to_string(),
            Step::DeliverResp(r) => format!("resp r{r}"),
            Step::DropData(c) => format!("drop c{c}"),
            Step::DropResp(r) => format!("drop r{r}"),
            Step::Tick => "tick".to_string(),
        }
    }

    /// Parses the one-line syntax produced by [`Step::render`].
    pub fn parse(line: &str) -> Result<Step, String> {
        let line = line.trim();
        let bad = || format!("unparseable schedule step: '{line}'");
        if line == "resume" {
            return Ok(Step::Resume);
        }
        if line == "tick" {
            return Ok(Step::Tick);
        }
        let (verb, rest) = line.split_once(' ').ok_or_else(bad)?;
        let id = |s: &str, tag: char| -> Result<u32, String> {
            s.strip_prefix(tag)
                .and_then(|n| n.parse().ok())
                .ok_or_else(bad)
        };
        match verb {
            "deliver" => Ok(Step::Deliver(id(rest, 'c')?)),
            "split" => {
                let (c, k) = rest.split_once('@').ok_or_else(bad)?;
                Ok(Step::Split(id(c, 'c')?, k.parse().map_err(|_| bad())?))
            }
            "resp" => Ok(Step::DeliverResp(id(rest, 'r')?)),
            "drop" => match rest.as_bytes().first() {
                Some(b'c') => Ok(Step::DropData(id(rest, 'c')?)),
                Some(b'r') => Ok(Step::DropResp(id(rest, 'r')?)),
                _ => Err(bad()),
            },
            _ => Err(bad()),
        }
    }
}

/// An ordered sequence of steps.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct Schedule {
    /// The steps, in execution order.
    pub steps: Vec<Step>,
}

impl Schedule {
    /// A schedule over the given steps.
    pub fn new(steps: Vec<Step>) -> Self {
        Schedule { steps }
    }

    /// Renders the schedule, one step per line (with trailing newline),
    /// ignoring-comments-tolerant inverse of [`Schedule::parse`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.steps {
            out.push_str(&s.render());
            out.push('\n');
        }
        out
    }

    /// Parses a rendered schedule; blank lines and `#` comments are
    /// skipped (corpus files carry provenance headers as comments).
    pub fn parse(text: &str) -> Result<Schedule, String> {
        let mut steps = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            steps.push(Step::parse(line)?);
        }
        Ok(Schedule { steps })
    }

    /// Stable 64-bit hash of the schedule (content-addressed corpus
    /// file names dedup on this).
    pub(crate) fn hash64(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write(self.render().as_bytes());
        h.finish64()
    }

    /// The hash as the 16-hex-digit string used in corpus file names.
    pub(crate) fn hash16(&self) -> String {
        format!("{:016x}", self.hash64())
    }

    /// How many times a packet entered the switch pipeline under this
    /// schedule ([`Step::Deliver`] + [`Step::Split`]) — the length
    /// metric compared against hand-written witnesses, which count
    /// `process()` calls.
    pub fn deliveries(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Deliver(_) | Step::Split(..)))
            .count()
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let s = Schedule::new(vec![
            Step::Deliver(0),
            Step::Split(1, 3),
            Step::Resume,
            Step::Tick,
            Step::Deliver(2),
            Step::DropData(3),
            Step::DeliverResp(0),
            Step::DropResp(1),
        ]);
        let text = s.render();
        assert_eq!(Schedule::parse(&text).unwrap(), s);
        // Comments and blank lines are tolerated.
        let annotated = format!("# witness for tally\n\n{text}# end\n");
        assert_eq!(Schedule::parse(&annotated).unwrap(), s);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Schedule::parse("deliver x1").is_err());
        assert!(Schedule::parse("split c1").is_err());
        assert!(Schedule::parse("drop q7").is_err());
        assert!(Schedule::parse("frobnicate").is_err());
    }

    #[test]
    fn canonical_step_order_is_declaration_order() {
        let mut steps = vec![
            Step::Tick,
            Step::DropResp(0),
            Step::Resume,
            Step::Deliver(1),
            Step::Deliver(0),
            Step::Split(0, 1),
            Step::DeliverResp(0),
            Step::DropData(0),
        ];
        steps.sort();
        assert_eq!(
            steps,
            vec![
                Step::Deliver(0),
                Step::Deliver(1),
                Step::Split(0, 1),
                Step::Resume,
                Step::DeliverResp(0),
                Step::DropData(0),
                Step::DropResp(0),
                Step::Tick,
            ]
        );
    }

    #[test]
    fn hash_is_stable_and_content_addressed() {
        let a = Schedule::new(vec![Step::Deliver(0), Step::Tick, Step::Deliver(1)]);
        let b = Schedule::parse(&a.render()).unwrap();
        assert_eq!(a.hash64(), b.hash64());
        assert_eq!(a.hash16().len(), 16);
        let c = Schedule::new(vec![Step::Deliver(1), Step::Tick, Step::Deliver(0)]);
        assert_ne!(a.hash64(), c.hash64());
    }

    #[test]
    fn delivery_count_is_the_witness_length_metric() {
        let s = Schedule::new(vec![
            Step::Deliver(0),
            Step::Tick,
            Step::Split(1, 2),
            Step::Resume,
            Step::DeliverResp(0),
        ]);
        assert_eq!(s.deliveries(), 2);
    }
}
