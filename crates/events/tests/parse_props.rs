//! Property tests for the event-signature parser.

use proptest::prelude::*;
use sentinel_events::{parse_signature, EventModifier, PrimitiveEventSpec};

fn arb_ident() -> impl Strategy<Value = String> {
    // The paper's identifiers include hyphens (Set-Salary) and
    // alphanumerics; keep `::`, whitespace and parens out.
    "[A-Za-z][A-Za-z0-9_-]{0,20}"
}

proptest! {
    /// Display form of a spec parses back to the same spec — for every
    /// modifier synonym accepted by the grammar.
    #[test]
    fn display_parse_round_trip(class in arb_ident(), method in arb_ident(), end in any::<bool>()) {
        let spec = if end {
            PrimitiveEventSpec::end(&class, &method)
        } else {
            PrimitiveEventSpec::begin(&class, &method)
        };
        let parsed = parse_signature(&spec.to_string()).unwrap();
        prop_assert_eq!(parsed, spec);
    }

    /// A well-formed parameter list never changes the parse.
    #[test]
    fn parameter_list_is_ignored(
        class in arb_ident(),
        method in arb_ident(),
        params in prop::collection::vec(
            ("[a-z][a-z0-9_]{0,6}", "[*&]{0,2}", "[a-z][a-z0-9_]{0,6}"),
            0..4,
        ),
    ) {
        let params: Vec<String> = params
            .iter()
            .map(|(ty, marks, name)| format!("{ty}{marks} {name}"))
            .collect();
        let params = params.join(", ");
        let bare = parse_signature(&format!("end {class}::{method}")).unwrap();
        let with = parse_signature(&format!("end {class}::{method}({params})")).unwrap();
        prop_assert_eq!(bare, with);
    }

    /// Synonyms map to the right modifier.
    #[test]
    fn modifier_synonyms(class in arb_ident(), method in arb_ident(), pick in 0usize..6) {
        let (word, expected) = [
            ("begin", EventModifier::Begin),
            ("bom", EventModifier::Begin),
            ("before", EventModifier::Begin),
            ("end", EventModifier::End),
            ("eom", EventModifier::End),
            ("after", EventModifier::End),
        ][pick];
        let parsed = parse_signature(&format!("{word} {class}::{method}")).unwrap();
        prop_assert_eq!(parsed.modifier, expected);
        prop_assert_eq!(parsed.class, class);
        prop_assert_eq!(parsed.method, method);
    }

    /// Text after the closing parenthesis is an error, not ignored.
    #[test]
    fn trailing_text_is_rejected(
        class in arb_ident(),
        method in arb_ident(),
        tail in "[A-Za-z0-9;:()*]{1,20}",
    ) {
        let sig = format!("end {class}::{method}(float x) {tail}");
        prop_assert!(parse_signature(&sig).is_err(), "accepted `{}`", sig);
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn never_panics(input in ".{0,60}") {
        let _ = parse_signature(&input);
    }
}

/// Each of these parsed to `end Employee::Change-Income` before the
/// parser read the whole signature.
#[test]
fn two_signatures_in_one_string_are_rejected() {
    let sig = "end Employee::Change-Income(float x) ; end Employee::Change-Income(float x)";
    assert!(parse_signature(sig).is_err());
}

#[test]
fn a_parameter_list_that_is_not_type_name_pairs_is_rejected() {
    let sig = "end Employee::Change-Income(this is not a parameter list)";
    assert!(parse_signature(sig).is_err());
}

#[test]
fn text_after_the_parameter_list_is_rejected() {
    let sig = "end Employee::Change-Income(float x) trailing)";
    assert!(parse_signature(sig).is_err());
}

#[test]
fn whitespace_inside_a_method_name_is_rejected() {
    assert!(parse_signature("end Employee::Change Income").is_err());
}
