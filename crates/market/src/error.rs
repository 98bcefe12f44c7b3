//! Error type for the market service.

use std::error::Error;
use std::fmt;

use ref_core::CoreError;

use crate::agent::AgentId;

/// Errors produced by the market engine and its snapshot codec.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MarketError {
    /// An event referenced an agent the market does not know.
    UnknownAgent(AgentId),
    /// An `AgentJoined` event reused a live agent's id.
    DuplicateAgent(AgentId),
    /// An observation was reported for an agent whose estimator is
    /// quarantined after repeated degenerate refits; a `DemandChanged`
    /// reset lifts the quarantine.
    QuarantinedAgent(AgentId),
    /// An argument violated a documented invariant.
    InvalidArgument(String),
    /// A snapshot could not be encoded or decoded.
    Snapshot(String),
    /// Bytes are not an event record
    /// ([`MarketEvent::read_record`](crate::events::MarketEvent::read_record)).
    Record(String),
    /// An underlying core-library operation failed.
    Core(CoreError),
}

impl fmt::Display for MarketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarketError::UnknownAgent(id) => write!(f, "unknown agent {id}"),
            MarketError::DuplicateAgent(id) => write!(f, "agent {id} is already live"),
            MarketError::QuarantinedAgent(id) => write!(
                f,
                "agent {id} is quarantined after repeated degenerate refits; \
                 reset it with a demand change"
            ),
            MarketError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            MarketError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            MarketError::Record(msg) => write!(f, "event record error: {msg}"),
            MarketError::Core(e) => write!(f, "core error: {e}"),
        }
    }
}

impl Error for MarketError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MarketError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for MarketError {
    fn from(e: CoreError) -> MarketError {
        MarketError::Core(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MarketError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_identify_the_failure() {
        assert!(MarketError::UnknownAgent(7).to_string().contains('7'));
        assert!(MarketError::DuplicateAgent(3)
            .to_string()
            .contains("already"));
        assert!(MarketError::Snapshot("bad magic".into())
            .to_string()
            .contains("bad magic"));
    }

    #[test]
    fn core_errors_convert_and_chain() {
        let e: MarketError = CoreError::InvalidArgument("x".into()).into();
        assert!(e.source().is_some());
    }
}
