//! Error types shared by every layer built on the object model.

use crate::oid::Oid;
use crate::value::TypeTag;
use std::fmt;

/// Result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, ObjectError>;

/// Everything that can go wrong in the object substrate and the layers
/// above it.
///
/// The rule layers reuse this type so that a rule condition/action body can
/// signal `TransactionAborted` — the paper's Figure 9 `A : abort` action —
/// and have the database roll the triggering transaction back.
/// The enum is `#[non_exhaustive]`: downstream `match`es need a
/// wildcard arm, and new error variants are not breaking changes. For
/// the two distinctions callers actually branch on, prefer the
/// [`is_abort`](Self::is_abort) / [`is_not_found`](Self::is_not_found)
/// predicates over matching variants directly.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
#[allow(missing_docs)] // variant fields are named and self-describing
pub enum ObjectError {
    /// No class with this name has been defined.
    UnknownClass(String),
    /// A class with this name already exists.
    DuplicateClass(String),
    /// A parent named in a class declaration does not exist.
    UnknownParent { class: String, parent: String },
    /// Two attributes with the same name in one declaration.
    DuplicateAttribute { class: String, attribute: String },
    /// Two methods with the same name in one declaration.
    DuplicateMethod { class: String, method: String },
    /// Inheritance graph has no consistent linearization (C3 failure).
    InconsistentHierarchy(String),
    /// The method is not defined on (or inherited by) the receiver's class.
    UnknownMethod { class: String, method: String },
    /// The attribute is not defined on (or inherited by) the class.
    UnknownAttribute { class: String, attribute: String },
    /// Object does not exist (never created, or deleted).
    NoSuchObject(Oid),
    /// A value did not conform to the declared type.
    TypeMismatch { expected: TypeTag, found: TypeTag },
    /// Wrong number of arguments in a message send.
    ArityMismatch {
        method: String,
        expected: usize,
        found: usize,
    },
    /// A method body was declared in the schema but never registered in
    /// the [`MethodTable`](crate::method::MethodTable).
    MissingImplementation { class: String, method: String },
    /// A private/protected method was invoked from outside the class.
    VisibilityViolation { class: String, method: String },
    /// Raised by a rule action (or method) to abort the surrounding
    /// transaction — the paper's `abort` rule action.
    TransactionAborted(String),
    /// Cascading rule execution exceeded the configured depth limit.
    CascadeDepthExceeded { limit: usize },
    /// No transaction is active where one is required.
    NoActiveTransaction,
    /// A transaction is already active where none may be.
    TransactionAlreadyActive,
    /// Referenced rule does not exist.
    UnknownRule(String),
    /// A rule with this name already exists.
    DuplicateRule(String),
    /// Referenced event object does not exist.
    UnknownEvent(String),
    /// Malformed event-signature string (paper §4.6 syntax).
    EventParse(String),
    /// The engine does not support the requested capability (the baseline
    /// engines' missing features).
    Unsupported(String),
    /// Storage-layer failure (I/O, corrupt record, ...).
    Storage(String),
    /// A rule references a condition/action body name that was never
    /// registered in the body registry. `kind` is `"condition"` or
    /// `"action"`. Surfaced as a diagnostic by the engine (at
    /// `add_rule` and at fire time) and by the static analyzer,
    /// instead of panicking inside dispatch.
    BodyNotRegistered { kind: &'static str, name: String },
    /// Catch-all for application-level failures inside method bodies.
    App(String),
}

impl fmt::Display for ObjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ObjectError::*;
        match self {
            UnknownClass(c) => write!(f, "unknown class `{c}`"),
            DuplicateClass(c) => write!(f, "class `{c}` already defined"),
            UnknownParent { class, parent } => {
                write!(f, "class `{class}`: unknown parent `{parent}`")
            }
            DuplicateAttribute { class, attribute } => {
                write!(f, "class `{class}`: duplicate attribute `{attribute}`")
            }
            DuplicateMethod { class, method } => {
                write!(f, "class `{class}`: duplicate method `{method}`")
            }
            InconsistentHierarchy(c) => {
                write!(f, "class `{c}`: no consistent C3 linearization")
            }
            UnknownMethod { class, method } => {
                write!(f, "class `{class}` does not understand `{method}`")
            }
            UnknownAttribute { class, attribute } => {
                write!(f, "class `{class}` has no attribute `{attribute}`")
            }
            NoSuchObject(oid) => write!(f, "no such object {oid}"),
            TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            ArityMismatch {
                method,
                expected,
                found,
            } => write!(
                f,
                "method `{method}` takes {expected} argument(s), {found} given"
            ),
            MissingImplementation { class, method } => {
                write!(f, "method `{class}::{method}` declared but not implemented")
            }
            VisibilityViolation { class, method } => {
                write!(f, "method `{class}::{method}` is not publicly callable")
            }
            TransactionAborted(reason) => write!(f, "transaction aborted: {reason}"),
            CascadeDepthExceeded { limit } => {
                write!(f, "rule cascade exceeded depth limit {limit}")
            }
            NoActiveTransaction => f.write_str("no active transaction"),
            TransactionAlreadyActive => f.write_str("a transaction is already active"),
            UnknownRule(r) => write!(f, "unknown rule `{r}`"),
            DuplicateRule(r) => write!(f, "rule `{r}` already defined"),
            UnknownEvent(e) => write!(f, "unknown event `{e}`"),
            EventParse(msg) => write!(f, "cannot parse event signature: {msg}"),
            Unsupported(what) => write!(f, "unsupported by this engine: {what}"),
            BodyNotRegistered { kind, name } => {
                write!(f, "no {kind} body registered under `{name}`")
            }
            Storage(msg) => write!(f, "storage error: {msg}"),
            App(msg) => write!(f, "application error: {msg}"),
        }
    }
}

impl std::error::Error for ObjectError {}

impl ObjectError {
    /// Convenience constructor for the paper's `abort` action.
    pub fn abort(reason: impl Into<String>) -> Self {
        ObjectError::TransactionAborted(reason.into())
    }

    /// True if this error denotes a deliberate transaction abort rather
    /// than a programming error.
    pub fn is_abort(&self) -> bool {
        matches!(self, ObjectError::TransactionAborted(_))
    }

    /// True if this error means a named entity (object, class, method,
    /// attribute, rule, or event) does not exist — the "look it up,
    /// fall back if absent" cases, as opposed to malformed input or an
    /// engine failure.
    pub fn is_not_found(&self) -> bool {
        matches!(
            self,
            ObjectError::NoSuchObject(_)
                | ObjectError::UnknownClass(_)
                | ObjectError::UnknownMethod { .. }
                | ObjectError::UnknownAttribute { .. }
                | ObjectError::UnknownRule(_)
                | ObjectError::UnknownEvent(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = ObjectError::UnknownMethod {
            class: "Employee".into(),
            method: "Fire".into(),
        };
        assert_eq!(e.to_string(), "class `Employee` does not understand `Fire`");
    }

    #[test]
    fn abort_helper() {
        let e = ObjectError::abort("same sex");
        assert!(e.is_abort());
        assert!(!ObjectError::NoActiveTransaction.is_abort());
    }

    #[test]
    fn body_not_registered_display() {
        let e = ObjectError::BodyNotRegistered {
            kind: "action",
            name: "purchase".into(),
        };
        assert_eq!(e.to_string(), "no action body registered under `purchase`");
        assert!(!e.is_abort());
        assert!(!e.is_not_found());
    }

    #[test]
    fn not_found_predicate() {
        assert!(ObjectError::NoSuchObject(Oid(7)).is_not_found());
        assert!(ObjectError::UnknownClass("X".into()).is_not_found());
        assert!(ObjectError::UnknownRule("R".into()).is_not_found());
        assert!(!ObjectError::abort("no").is_not_found());
        assert!(!ObjectError::Storage("disk".into()).is_not_found());
    }
}
