// lint-rules: float-eq seed-discipline
//
// Sources that defeat a line-regex scanner: the engine must reason over
// tokens, so banned patterns inside raw strings, nested block comments,
// byte strings, and char literals never fire — and real ones still do.

pub fn raw_strings() -> &'static str {
    r#"a raw string with x == 1.0 and seed + 1 and "quotes" inside"#
}

pub fn rawer_strings() -> &'static str {
    r##"ends only at double-hash: "# seed ^ 7 == 2.0 "##
}

pub fn byte_strings() -> &'static [u8] {
    b"seed * 3 in a byte string \" with an escaped quote"
}

pub fn nested_comments() -> u32 {
    /* outer /* nested */ seed + 1 == 2.0 is still one comment */
    0
}

pub fn chars_vs_lifetimes<'a>(x: &'a [u8]) -> char {
    let quote = '"'; // a char holding a double quote must not open a string
    let newline = '\n';
    let _ = (x, newline);
    quote
}

pub fn raw_ident_is_not_a_raw_string() -> u32 {
    let r#fn = 1u32; // `r#fn` is a raw identifier, not `r#"…"#`
    r#fn
}

pub fn a_real_seed_mix(seed: u64) -> u64 {
    seed ^ 0x5EED //~ ERROR seed-discipline
}

pub fn a_real_float_eq(a: f64) -> bool {
    a == 0.5 //~ ERROR float-eq
}

