//! Source-level guards over the engine layer's non-test code: it names no
//! index-width abstraction, so the engines stay on the one id type the run
//! checks before any rank spawns; and it charges no compute by hand, so
//! `gblas::dist` alone decides what a local pass costs.

const SOURCES: [(&str, &str); 2] = [
    ("engine.rs", include_str!("../src/engine.rs")),
    ("engine/driver.rs", include_str!("../src/engine/driver.rs")),
];

/// Fails naming the first file whose non-test code has one of `names` as a
/// word.
fn assert_names_none(names: &[&str], why: &str) {
    for (file, src) in SOURCES {
        let code = src.find("\n#[cfg(test)]").map_or(src, |t| &src[..t]);
        let words: Vec<&str> = code
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .collect();
        for name in names {
            assert!(!words.contains(name), "{file} names `{name}`: {why}");
        }
    }
}

#[test]
fn engines_name_no_index_width_parameter() {
    assert_names_none(
        &["Idx", "WireWord", "NarrowVal"],
        "the engines run on one id type, `Id` = u32",
    );
}

#[test]
fn engines_charge_no_compute_by_hand() {
    assert_names_none(
        &["charge_compute"],
        "a local pass is a `gblas::dist` primitive, which charges itself",
    );
}
