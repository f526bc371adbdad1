//! The unified error type of the façade.

use std::fmt;

/// Anything that can go wrong between MIR and simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Backend compilation failed.
    Compile(ferrum_backend::lower::CompileError),
    /// A protection pass failed.
    Pass(ferrum_eddi::PassError),
    /// Loading the program into the simulator failed.
    Load(ferrum_cpu::image::LoadError),
    /// A fault-injection campaign could not run.
    Campaign(ferrum_faultsim::CampaignError),
    /// A tool-level failure outside the compile/protect/load pipeline:
    /// event-sink IO, a malformed or mismatched resume journal, ...
    Tool(String),
}

impl Error {
    /// Wraps a tool-level message.
    pub fn msg(m: impl Into<String>) -> Error {
        Error::Tool(m.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Compile(e) => write!(f, "compile error: {e}"),
            Error::Pass(e) => write!(f, "protection error: {e}"),
            Error::Load(e) => write!(f, "load error: {e}"),
            Error::Campaign(e) => write!(f, "campaign error: {e}"),
            Error::Tool(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Compile(e) => Some(e),
            Error::Pass(e) => Some(e),
            Error::Load(e) => Some(e),
            Error::Campaign(e) => Some(e),
            Error::Tool(_) => None,
        }
    }
}

impl From<ferrum_backend::lower::CompileError> for Error {
    fn from(e: ferrum_backend::lower::CompileError) -> Error {
        Error::Compile(e)
    }
}

impl From<ferrum_eddi::PassError> for Error {
    fn from(e: ferrum_eddi::PassError) -> Error {
        Error::Pass(e)
    }
}

impl From<ferrum_cpu::image::LoadError> for Error {
    fn from(e: ferrum_cpu::image::LoadError) -> Error {
        Error::Load(e)
    }
}

impl From<ferrum_faultsim::CampaignError> for Error {
    fn from(e: ferrum_faultsim::CampaignError) -> Error {
        Error::Campaign(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        let e = Error::Pass(ferrum_eddi::PassError::Invalid("x".into()));
        assert!(e.to_string().contains("protection error"));
        assert!(e.source().is_some());
        let e = Error::Load(ferrum_cpu::image::LoadError::Invalid("y".into()));
        assert!(e.to_string().contains("load error"));
        let e = Error::from(ferrum_faultsim::CampaignError::NoSites);
        assert!(e.to_string().contains("no injectable sites"));
        assert!(e.source().is_some());
    }
}
