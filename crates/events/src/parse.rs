//! Parser for the paper's event-signature strings (§4.6).
//!
//! The paper creates primitive event objects from signature strings:
//!
//! ```text
//! Event* empsal   = new Primitive ("end Employee::Set-Salary(float x)")
//! Event* withdraw = new Primitive ("before Account::Withdraw(float x)")
//! ```
//!
//! Accepted grammar (whitespace-insensitive around tokens):
//!
//! ```text
//! signature := modifier class "::" method [ "(" params ")" ]
//! modifier  := "begin" | "bom" | "before" | "end" | "eom" | "after"
//! params    := "" | param { "," param }
//! param     := ident { "*" | "&" } ident     -- type, then name
//! ```
//!
//! Class and method names hold no whitespace, parentheses, colons or
//! commas, and nothing may follow the closing parenthesis. The
//! parameter list is checked for shape and otherwise ignored — the
//! schema is the source of truth for parameter types; the paper
//! includes the list purely to make the signature unique and readable.

use crate::spec::{EventModifier, PrimitiveEventSpec};
use sentinel_object::{ObjectError, Result};

/// Parse a paper-style signature string into a [`PrimitiveEventSpec`].
pub fn parse_signature(sig: &str) -> Result<PrimitiveEventSpec> {
    let s = sig.trim();
    let (modifier, rest) = match s.split_once(char::is_whitespace) {
        Some((m, rest)) => (m, rest.trim_start()),
        None => {
            return Err(ObjectError::EventParse(format!(
                "`{sig}`: expected `<modifier> <Class>::<method>`"
            )))
        }
    };
    let modifier = match modifier {
        "begin" | "bom" | "before" => EventModifier::Begin,
        "end" | "eom" | "after" => EventModifier::End,
        other => {
            return Err(ObjectError::EventParse(format!(
                "`{sig}`: unknown modifier `{other}` (expected begin/before/bom or end/after/eom)"
            )))
        }
    };
    let err = |what: &str| ObjectError::EventParse(format!("`{sig}`: {what}"));
    // Check and strip an optional parameter list.
    let rest = match rest.split_once('(') {
        Some((head, tail)) => {
            let (params, after) = tail
                .split_once(')')
                .ok_or_else(|| err("unterminated parameter list"))?;
            if !after.trim().is_empty() {
                return Err(err(&format!(
                    "unexpected `{}` after the parameter list",
                    after.trim()
                )));
            }
            if !params_well_formed(params) {
                return Err(err(&format!(
                    "`({params})` is not a list of `type name` parameters"
                )));
            }
            head.trim()
        }
        None => rest.trim(),
    };
    let (class, method) = rest
        .split_once("::")
        .ok_or_else(|| err(&format!("expected `Class::method`, got `{rest}`")))?;
    let class = class.trim();
    let method = method.trim();
    if class.is_empty() || method.is_empty() {
        return Err(err("empty class or method name"));
    }
    for name in [class, method] {
        if name.contains(|c: char| c.is_whitespace() || "():,".contains(c)) {
            return Err(err(&format!("`{name}` is not a class or method name")));
        }
    }
    Ok(PrimitiveEventSpec {
        class: class.to_string(),
        method: method.to_string(),
        modifier,
    })
}

/// Is `params` empty, or a comma-separated list of `type name`
/// parameters (a `*` or `&` may mark the type, as in `Person* spouse`)?
fn params_well_formed(params: &str) -> bool {
    if params.trim().is_empty() {
        return true;
    }
    params.split(',').all(|param| {
        let Some(rest) = strip_ident(param.trim_start()) else {
            return false;
        };
        let name = rest.trim_start_matches(|c: char| c.is_whitespace() || c == '*' || c == '&');
        // The type and the name must be apart.
        name.len() < rest.len() && strip_ident(name).is_some_and(|end| end.trim().is_empty())
    })
}

/// `s` after a leading identifier (`[A-Za-z_][A-Za-z0-9_]*`), if it
/// starts with one.
fn strip_ident(s: &str) -> Option<&str> {
    let mut chars = s.char_indices();
    match chars.next() {
        Some((_, c)) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return None,
    }
    let end = chars
        .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '_'))
        .map_or(s.len(), |(i, _)| i);
    Some(&s[end..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_examples_parse() {
        // §4.6 examples, verbatim.
        let e = parse_signature("end Employee::Set-Salary(float x)").unwrap();
        assert_eq!(e, PrimitiveEventSpec::end("Employee", "Set-Salary"));

        let e = parse_signature("end Account::Deposit(float x)").unwrap();
        assert_eq!(e, PrimitiveEventSpec::end("Account", "Deposit"));

        let e = parse_signature("before Account::Withdraw(float x)").unwrap();
        assert_eq!(e, PrimitiveEventSpec::begin("Account", "Withdraw"));

        // Figure 9 example.
        let e = parse_signature("begin Person::Marry (Person* spouse)").unwrap();
        assert_eq!(e, PrimitiveEventSpec::begin("Person", "Marry"));
    }

    #[test]
    fn modifier_synonyms() {
        for m in ["begin", "bom", "before"] {
            assert_eq!(
                parse_signature(&format!("{m} C::m")).unwrap().modifier,
                EventModifier::Begin
            );
        }
        for m in ["end", "eom", "after"] {
            assert_eq!(
                parse_signature(&format!("{m} C::m")).unwrap().modifier,
                EventModifier::End
            );
        }
    }

    #[test]
    fn parameter_list_optional_and_ignored() {
        assert_eq!(
            parse_signature("end C::m").unwrap(),
            parse_signature("end C::m(int a, float b)").unwrap()
        );
        for ok in [
            "end C::m()",
            "end C::m( )",
            "end C::m(Person *p, T& t, U * u)",
        ] {
            assert_eq!(
                parse_signature(ok).unwrap(),
                PrimitiveEventSpec::end("C", "m")
            );
        }
    }

    #[test]
    fn malformed_signatures_rejected() {
        for bad in [
            "",
            "end",
            "banana C::m",
            "end Cm",
            "end ::m",
            "end C::",
            "end C::m(unclosed",
            "end C::m(int a) b",
            "end C::m(int)",
            "end C::m(int a,)",
            "end C::m(int a b)",
            "end C::m((int a))",
            "end C::m m",
            "end C c::m",
        ] {
            assert!(
                matches!(parse_signature(bad), Err(ObjectError::EventParse(_))),
                "should reject `{bad}`"
            );
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let e = parse_signature("  end   Stock::SetPrice ( float p ) ").unwrap();
        assert_eq!(e, PrimitiveEventSpec::end("Stock", "SetPrice"));
    }
}
