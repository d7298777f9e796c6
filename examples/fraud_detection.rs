//! Fraud detection — composite events, windows, and windowed
//! aggregation over a virtual clock.
//!
//! A card processor watches spend streams for three classic
//! signatures, each a declarative ECA rule rather than imperative
//! stream code:
//!
//! * **Test-then-spend** — a zero-amount authorization probe followed
//!   by a real spend inside a 20-instant window (`Seq` scoped by a
//!   sliding window);
//! * **Rapid fire** — three or more spends inside a 60-instant window
//!   (windowed `count` aggregate);
//! * **Large outflow** — spends summing past 5000 inside a 100-instant
//!   window (windowed `sum` over the event's amount parameter).
//!
//! A nightly sweep (`every 500`) clears flags on cards that were
//! flagged but never frozen. Virtual time makes the whole scenario
//! deterministic: the example drives the clock explicitly.
//!
//! Run with: `cargo run --example fraud_detection`

use sentinel::prelude::*;

fn main() -> Result<()> {
    let mut db = Database::with_config(DbConfig::in_memory().time_mode(TimeMode::Virtual))?;

    // --- Schema ---------------------------------------------------------
    db.define_class(
        ClassDecl::reactive("Card")
            .attr("owner", TypeTag::Str)
            .attr("flagged", TypeTag::Bool)
            .attr("frozen", TypeTag::Bool)
            .attr("spent", TypeTag::Int)
            .event_method("Probe", &[], EventSpec::End)
            .event_method("Spend", &[("amount", TypeTag::Int)], EventSpec::End),
    )?;
    db.register_method("Card", "Probe", |_w, _this, _| Ok(Value::Null))?;
    db.register_method("Card", "Spend", |w, this, args| {
        let total = w.get_attr(this, "spent")?.as_int()?;
        w.set_attr(this, "spent", Value::Int(total + args[0].as_int()?))?;
        Ok(Value::Null)
    })?;

    // --- Actions with declared effects (the analyzer proves no rule
    // --- can cascade: flag/freeze write attributes, raise nothing) ------
    db.register(
        ActionDef::new("flag")
            .writes(("Card", "flagged"))
            .body(|w, f| {
                let o = f.occurrence.constituents[0].oid;
                println!("  ?? flagging {}", w.get_attr(o, "owner")?);
                w.set_attr(o, "flagged", Value::Bool(true))
            }),
    )?;
    db.register(
        ActionDef::new("freeze")
            .writes(("Card", "frozen"))
            .body(|w, f| {
                let o = f.occurrence.constituents[0].oid;
                println!("  !! freezing {}", w.get_attr(o, "owner")?);
                w.set_attr(o, "frozen", Value::Bool(true))
            }),
    )?;
    db.register(
        ActionDef::new("clear-flags")
            .writes(("Card", "flagged"))
            .body(|w, _f| {
                for c in w.extent("Card")? {
                    if w.get_attr(c, "flagged")? == Value::Bool(true)
                        && w.get_attr(c, "frozen")? != Value::Bool(true)
                    {
                        println!("  .. clearing flag on {}", w.get_attr(c, "owner")?);
                        w.set_attr(c, "flagged", Value::Bool(false))?;
                    }
                }
                Ok(())
            }),
    )?;

    // --- Rules ----------------------------------------------------------
    let probe = event("end Card::Probe()")?;
    let spend = event("end Card::Spend(int amount)")?;
    db.add_class_rule(
        "Card",
        // This and LargeOutflow both run `flag`. The higher priority
        // makes this one fire first whenever both trigger on one spend,
        // and that fixed order keeps the pair confluent.
        RuleDef::new(
            "TestThenSpend",
            probe.then(spend.clone()).sliding_window(20),
            "flag",
        )
        .priority(1),
    )?;
    db.add_class_rule(
        "Card",
        RuleDef::new("RapidFire", spend.clone().count_within(60, 3), "freeze"),
    )?;
    db.add_class_rule(
        "Card",
        RuleDef::new("LargeOutflow", spend.sum_within(100, 0, 5000), "flag"),
    )?;
    db.add_rule(RuleDef::new(
        "NightlySweep",
        EventExpr::every(1000),
        "clear-flags",
    ))?;

    // --- Static analysis gate -------------------------------------------
    let report = db.analyze();
    println!("analysis: {}", report.summary());
    println!("{}", report.termination.render_table());
    report.gate()?;

    // --- Drive it --------------------------------------------------------
    let honest = db.create_with("Card", &[("owner", "honest-harriet".into())])?;
    let tester = db.create_with("Card", &[("owner", "test-then-spend-tom".into())])?;
    let burster = db.create_with("Card", &[("owner", "rapid-rita".into())])?;
    let whale = db.create_with("Card", &[("owner", "big-spender-bill".into())])?;

    // The rules are class-level, so all cards feed the same detectors;
    // each phase below is separated by an advance longer than every
    // window, so signatures cannot smear across phases.

    // Harriet: ordinary paced spending. No window ever holds enough.
    for _ in 0..4 {
        db.send(honest, "Spend", &[Value::Int(40)])?;
        db.advance_time(80)?;
    }
    db.advance_time(120)?;

    // Tom: the probe-then-spend signature, 5 instants apart.
    db.send(tester, "Probe", &[])?;
    db.advance_time(5)?;
    db.send(tester, "Spend", &[Value::Int(900)])?;
    db.advance_time(120)?;

    // Rita: three spends in 20 instants.
    for _ in 0..3 {
        db.send(burster, "Spend", &[Value::Int(25)])?;
        db.advance_time(10)?;
    }
    db.advance_time(120)?;

    // Bill: two spends that together clear 5000 inside one window.
    db.send(whale, "Spend", &[Value::Int(3000)])?;
    db.advance_time(30)?;
    db.send(whale, "Spend", &[Value::Int(2500)])?;

    assert_eq!(db.get_attr(honest, "flagged")?, Value::Bool(false));
    assert_eq!(db.get_attr(honest, "frozen")?, Value::Bool(false));
    assert_eq!(db.get_attr(tester, "flagged")?, Value::Bool(true));
    assert_eq!(db.get_attr(burster, "frozen")?, Value::Bool(true));
    assert_eq!(db.get_attr(whale, "flagged")?, Value::Bool(true));
    println!(
        "t={}: tom flagged, rita frozen, bill flagged, harriet clean",
        db.now_instant()
    );

    // The nightly sweep clears flags on cards that were not frozen.
    db.advance_time(1000)?;
    assert_eq!(db.get_attr(tester, "flagged")?, Value::Bool(false));
    assert_eq!(db.get_attr(whale, "flagged")?, Value::Bool(false));
    assert_eq!(db.get_attr(burster, "frozen")?, Value::Bool(true));
    println!(
        "t={}: sweep cleared soft flags; rita stays frozen",
        db.now_instant()
    );

    let s = db.stats();
    println!(
        "stats: {} sends, {} events, {} actions",
        s.sends, s.events_generated, s.actions_run
    );
    Ok(())
}
