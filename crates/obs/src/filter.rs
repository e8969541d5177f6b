//! The trace filter: a live stderr view over the structured event stream.
//!
//! [`ObsConfig::trace`](crate::ObsConfig::trace) selects it, off by
//! default. `One { node, block }` prints every recorded protocol event
//! touching that (node, block) pair, and `All` prints everything (very
//! verbose). The `diag` binary fills it in from `DSM_TRACE=<node>:<block>`
//! or `DSM_TRACE=all`, parsed by [`TraceFilter::parse`].

/// Which events the trace view prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFilter {
    /// Print nothing (the default).
    Off,
    /// Print every event.
    All,
    /// Print events on one node that concern one coherence block.
    One {
        /// Node of interest.
        node: usize,
        /// Coherence block of interest.
        block: usize,
    },
}

impl TraceFilter {
    /// Parse a `DSM_TRACE` value. Accepted forms: `all`, or
    /// `<node>:<block>` with both parts unsigned integers. Anything else
    /// is an error describing what was expected.
    pub fn parse(text: &str) -> Result<TraceFilter, String> {
        let text = text.trim();
        if text.is_empty() {
            return Ok(TraceFilter::Off);
        }
        if text == "all" {
            return Ok(TraceFilter::All);
        }
        let err = || {
            format!(
                "malformed DSM_TRACE value {text:?}: accepted forms are \
                 \"all\" or \"<node>:<block>\" (e.g. \"7:158\")"
            )
        };
        let (n, b) = text.split_once(':').ok_or_else(err)?;
        let node = n.trim().parse::<usize>().map_err(|_| err())?;
        let block = b.trim().parse::<usize>().map_err(|_| err())?;
        Ok(TraceFilter::One { node, block })
    }

    /// True when an event on `node` concerning `block` should print.
    /// Events without a block (`block == None`) only print under `All`.
    pub fn matches(&self, node: usize, block: Option<usize>) -> bool {
        match *self {
            TraceFilter::Off => false,
            TraceFilter::All => true,
            TraceFilter::One { node: n, block: b } => node == n && block == Some(b),
        }
    }

    /// True when the filter prints anything at all.
    pub fn is_on(&self) -> bool {
        *self != TraceFilter::Off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_accepted_forms() {
        assert_eq!(TraceFilter::parse("all"), Ok(TraceFilter::All));
        assert_eq!(
            TraceFilter::parse("7:158"),
            Ok(TraceFilter::One {
                node: 7,
                block: 158
            })
        );
        assert_eq!(
            TraceFilter::parse(" 0 : 0 "),
            Ok(TraceFilter::One { node: 0, block: 0 })
        );
        assert_eq!(TraceFilter::parse(""), Ok(TraceFilter::Off));
        assert_eq!(TraceFilter::parse("   "), Ok(TraceFilter::Off));
    }

    #[test]
    fn rejects_malformed_values_with_guidance() {
        for bad in ["7", "x:y", "1:2:3", "all!", "-1:4", "3:", ":4", "1.5:2"] {
            let e = TraceFilter::parse(bad).unwrap_err();
            assert!(e.contains("DSM_TRACE"), "{e}");
            assert!(e.contains("<node>:<block>"), "{e}");
            assert!(e.contains("all"), "{e}");
        }
    }

    #[test]
    fn matching_semantics() {
        let one = TraceFilter::One { node: 2, block: 9 };
        assert!(one.matches(2, Some(9)));
        assert!(!one.matches(2, Some(8)));
        assert!(!one.matches(1, Some(9)));
        assert!(!one.matches(2, None));
        assert!(TraceFilter::All.matches(0, None));
        assert!(!TraceFilter::Off.matches(0, Some(0)));
        assert!(TraceFilter::All.is_on());
        assert!(!TraceFilter::Off.is_on());
    }
}
