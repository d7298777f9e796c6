//! # Sentinel — rule support for object-oriented databases
//!
//! Umbrella crate re-exporting the whole workspace. This is the crate a
//! downstream user depends on; the examples under `examples/` and the
//! integration tests under `tests/` use only this public surface.
//!
//! Reproduces *"A New Perspective on Rule Support for Object-Oriented
//! Databases"* (Anwar, Maugis, Chakravarthy — SIGMOD 1993): an active
//! OODB where reactive objects raise events through a declared *event
//! interface*, events and ECA rules are first-class objects, and a
//! runtime *subscription* mechanism connects rules to the objects they
//! monitor — including objects of different classes.
//!
//! ```
//! use sentinel::prelude::*;
//!
//! let mut db = Database::new();
//! db.define_class(
//!     ClassDecl::reactive("Counter")
//!         .attr("n", TypeTag::Int)
//!         .event_method("Bump", &[], EventSpec::End),
//! ).unwrap();
//! db.register_method("Counter", "Bump", |w, this, _| {
//!     let n = w.get_attr(this, "n")?.as_int()?;
//!     w.set_attr(this, "n", Value::Int(n + 1))?;
//!     Ok(Value::Null)
//! }).unwrap();
//! let c = db.create("Counter").unwrap();
//! db.send(c, "Bump", &[]).unwrap();
//! assert_eq!(db.get_attr(c, "n").unwrap(), Value::Int(1));
//! ```

pub mod shell;

pub use sentinel_analyze as analyze;
pub use sentinel_db as db;
pub use sentinel_events as events;
pub use sentinel_object as object;
pub use sentinel_rules as rules;
pub use sentinel_storage as storage;

/// Everything an application typically needs.
pub mod prelude {
    pub use sentinel_db::prelude::*;
}
