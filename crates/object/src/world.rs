//! The [`World`] trait — how method bodies, rule conditions, and rule
//! actions see the database.
//!
//! The paper implements conditions and actions as C++ member functions
//! reached through pointers-to-member (PMF); those bodies freely touch
//! other objects (`Parker!PurchaseIBMStock`). In Rust the equivalent body
//! is a registered closure, and `World` is the capability it receives: it
//! can read and write attributes, send messages (which generate events and
//! may cascade rules), create and delete objects, and abort the
//! surrounding transaction by returning an error.
//!
//! Both the Sentinel engine and the Ode/ADAM baseline engines implement
//! `World`, so one set of method bodies drives all three in the
//! comparisons of the root `paper_claims` test.

use crate::error::Result;
use crate::oid::Oid;
use crate::schema::{ClassId, ClassRegistry};
use crate::value::Value;

/// Capability interface handed to method bodies and rule bodies.
pub trait World {
    /// The schema.
    fn registry(&self) -> &ClassRegistry;

    /// Create a fresh instance of the named class (default-initialised).
    fn create(&mut self, class: &str) -> Result<Oid>;

    /// Delete an object.
    fn delete(&mut self, oid: Oid) -> Result<()>;

    /// Read an attribute.
    fn get_attr(&self, oid: Oid, attr: &str) -> Result<Value>;

    /// Write an attribute.
    fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> Result<()>;

    /// Send a message: dispatch `method` on `receiver`. Under the
    /// Sentinel engine this raises the declared bom/eom events and may
    /// trigger rules; under a passive world it is plain dispatch.
    fn send(&mut self, receiver: Oid, method: &str, args: &[Value]) -> Result<Value>;

    /// The dynamic class of an object.
    fn class_of(&self, oid: Oid) -> Result<ClassId>;

    /// All live instances of the named class, subclass instances included.
    fn extent(&self, class: &str) -> Result<Vec<Oid>>;

    /// Current logical time (monotone; event timestamps come from the
    /// same clock).
    fn now(&self) -> u64;
}

/// Convenience accessors implemented on top of the raw interface.
impl dyn World + '_ {
    /// Read an attribute and extract a float (ints widen).
    pub fn get_float(&self, oid: Oid, attr: &str) -> Result<f64> {
        self.get_attr(oid, attr)?.as_float()
    }

    /// Read an attribute and extract an int.
    pub fn get_int(&self, oid: Oid, attr: &str) -> Result<i64> {
        self.get_attr(oid, attr)?.as_int()
    }

    /// Read an attribute and extract an oid reference.
    pub fn get_ref(&self, oid: Oid, attr: &str) -> Result<Oid> {
        self.get_attr(oid, attr)?.as_oid()
    }

    /// Read an attribute and extract a string.
    pub fn get_string(&self, oid: Oid, attr: &str) -> Result<String> {
        Ok(self.get_attr(oid, attr)?.as_str()?.to_string())
    }
}
