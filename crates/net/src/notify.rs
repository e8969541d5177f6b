//! Message-arrival notification mechanisms (paper §3 and §5.4).

/// How a node learns that a message has arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Notify {
    /// Executable-edited polling: every control-flow backedge checks a
    /// cachable Typhoon-0 register (6–7 cycles when no message is present,
    /// 1.5 µs round trip when one is). Inflates application compute time by
    /// an app-dependent instrumentation factor, but services asynchronous
    /// requests almost immediately.
    Polling,
    /// LANai hardware interrupt translated by Solaris into a Unix signal
    /// (~70 µs per asynchronous notification). Interrupts are disabled for a
    /// short window after a node obtains a block, which delays incoming
    /// invalidations and damps the false-sharing ping-pong (the
    /// delayed-consistency effect of §5.4).
    Interrupt,
}

impl Notify {
    /// All mechanisms, in paper presentation order.
    pub const ALL: [Notify; 2] = [Notify::Polling, Notify::Interrupt];

    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Notify::Polling => "polling",
            Notify::Interrupt => "interrupt",
        }
    }
}

impl std::str::FromStr for Notify {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "polling" | "poll" | "polled" => Ok(Notify::Polling),
            "interrupt" | "intr" | "interrupts" => Ok(Notify::Interrupt),
            _ => Err(format!(
                "unknown notification mechanism {s:?} (one of: polling, interrupt)"
            )),
        }
    }
}

impl std::fmt::Display for Notify {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_names() {
        assert_eq!("polling".parse::<Notify>().unwrap(), Notify::Polling);
        assert_eq!("INTR".parse::<Notify>().unwrap(), Notify::Interrupt);
        assert_eq!("polled".parse::<Notify>().unwrap(), Notify::Polling);
        assert_eq!("interrupts".parse::<Notify>().unwrap(), Notify::Interrupt);
        assert!("carrier-pigeon".parse::<Notify>().is_err());
    }

    #[test]
    fn round_trips_display() {
        for n in Notify::ALL {
            assert_eq!(n.name().parse::<Notify>().unwrap(), n);
        }
    }
}
