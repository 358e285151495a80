//! Source-level guards over `src/dist/ops.rs`: what its non-test code may
//! not contain, checked where every other gate is — in `cargo test`.

const OPS: &str = include_str!("../src/dist/ops.rs");

#[test]
fn ops_rs_stays_search_free_with_one_dense_kernel() {
    let tests = OPS.find("\n#[cfg(test)]");
    let code = &OPS[..tests.expect("ops.rs has a test module")];
    assert!(
        !code.contains("HashMap") && !code.contains("binary_search"),
        "HashMap or binary_search is back on the extract/assign path (see DESIGN.md, Wire levels)"
    );
    let start = code.find("\nfn local_multiply_block");
    let body = &code[start.expect("local_multiply_block exists")..];
    let body = &body[..body.find("\n}\n").expect("the function ends")];
    assert!(
        !body.contains("Csc") && !body.contains("nonempty_cols"),
        "a second, column-sweep dense kernel is back in local_multiply_block \
         (see DESIGN.md, Threading model)"
    );
}
