//! Shared passive object kernel for the baseline engines.
//!
//! Both baselines run on the same object substrate as Sentinel —
//! schema, store, native methods, transactional undo — so the
//! comparisons in the root `paper_claims` test see only the difference
//! in *rule architecture*, not in object-model implementation quality.

use sentinel_object::{
    ClassDecl, ClassId, ClassRegistry, MethodTable, ObjectError, ObjectStore, Oid, Result, Value,
    World,
};
use sentinel_storage::{TxnManager, UndoOp};

/// Registry + store + methods + transactions, minus any reactivity.
#[derive(Debug)]
pub struct Kernel {
    /// The schema.
    pub registry: ClassRegistry,
    /// Instance storage.
    pub store: ObjectStore,
    /// Native method bodies.
    pub methods: MethodTable,
    /// Transaction manager (undo only; baselines skip the WAL).
    pub txn: TxnManager,
    clock: u64,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// An empty kernel.
    pub fn new() -> Self {
        Kernel {
            registry: ClassRegistry::new(),
            store: ObjectStore::new(),
            methods: MethodTable::new(),
            txn: TxnManager::new(),
            clock: 0,
        }
    }

    /// Define a class (baselines ignore the event interface if present).
    pub fn define_class(&mut self, decl: ClassDecl) -> Result<ClassId> {
        self.registry.define(decl)
    }

    /// Register a method body.
    pub fn register_method<F>(&mut self, class: &str, method: &str, body: F) -> Result<()>
    where
        F: Fn(&mut dyn World, Oid, &[Value]) -> Result<Value> + Send + Sync + 'static,
    {
        let id = self.registry.id_of(class)?;
        self.methods.register(id, method, body);
        Ok(())
    }

    /// Register a setter body.
    pub fn register_setter(&mut self, class: &str, method: &str, attr: &str) -> Result<()> {
        let id = self.registry.id_of(class)?;
        self.methods.register_setter(id, method, attr);
        Ok(())
    }

    /// Register a getter body.
    pub fn register_getter(&mut self, class: &str, method: &str, attr: &str) -> Result<()> {
        let id = self.registry.id_of(class)?;
        self.methods.register_getter(id, method, attr);
        Ok(())
    }

    /// Advance the logical clock.
    pub fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Create an instance inside the active transaction.
    pub fn create_in_txn(&mut self, class: ClassId) -> Result<Oid> {
        let oid = self.store.create(&self.registry, class);
        self.txn.record(UndoOp::Create { oid })?;
        Ok(oid)
    }

    /// Write an attribute inside the active transaction.
    pub fn set_attr_in_txn(&mut self, oid: Oid, attr: &str, value: Value) -> Result<()> {
        let class = self.store.class_of(oid)?;
        let slot = self.registry.get(class).slot_of(attr).ok_or_else(|| {
            ObjectError::UnknownAttribute {
                class: self.registry.get(class).name.clone(),
                attribute: attr.to_string(),
            }
        })?;
        let old = self.store.set_attr(&self.registry, oid, attr, value)?;
        self.txn.record(UndoOp::SetSlot { oid, slot, old })?;
        Ok(())
    }

    /// Delete an object inside the active transaction.
    pub fn delete_in_txn(&mut self, oid: Oid) -> Result<()> {
        let state = self.store.delete(oid)?;
        self.txn.record(UndoOp::Delete { oid, state })?;
        Ok(())
    }

    /// Roll back the active transaction.
    pub fn rollback(&mut self) {
        let _ = self.txn.abort(&self.store);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_object::TypeTag;

    #[test]
    fn kernel_txn_round_trip() {
        let mut k = Kernel::new();
        let c = k
            .define_class(ClassDecl::new("C").attr("x", TypeTag::Int))
            .unwrap();
        k.txn.begin().unwrap();
        let o = k.create_in_txn(c).unwrap();
        k.set_attr_in_txn(o, "x", Value::Int(5)).unwrap();
        k.txn.commit().unwrap();

        k.txn.begin().unwrap();
        k.set_attr_in_txn(o, "x", Value::Int(9)).unwrap();
        k.rollback();
        assert_eq!(
            k.store.get_attr(&k.registry, o, "x").unwrap(),
            Value::Int(5)
        );
    }
}
