//! Source-level guard over the engine layer: its non-test code names no
//! index-width abstraction, so the engines stay on the one id type the run
//! checks before any rank spawns.

const SOURCES: [(&str, &str); 2] = [
    ("engine.rs", include_str!("../src/engine.rs")),
    ("engine/driver.rs", include_str!("../src/engine/driver.rs")),
];

#[test]
fn engines_name_no_index_width_parameter() {
    for (file, src) in SOURCES {
        let code = src.find("\n#[cfg(test)]").map_or(src, |t| &src[..t]);
        let words: Vec<&str> = code
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .collect();
        for name in ["Idx", "WireWord", "NarrowVal"] {
            assert!(
                !words.contains(&name),
                "{file} names `{name}`: the engines run on one id type, `Id` = u32"
            );
        }
    }
}
