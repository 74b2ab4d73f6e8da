//! The one deterministic JSON writer behind every export.
//!
//! Contract: values are integers (booleans write as `1`/`0`) or strings;
//! keys appear in the order the caller writes them; no whitespace is
//! emitted; strings and keys are escaped here and nowhere else. Same
//! calls ⇒ same bytes, so an export built from virtual-time state is
//! byte-identical across same-seed runs.
//!
//! The writer owns comma placement: one flag says whether the next key
//! or value at the current position needs a leading comma, which is
//! enough because opening a container clears it and writing a value or
//! closing a container sets it.
//!
//! Debug builds also check nesting: a close must match the innermost
//! open container, a key may only sit directly inside an object, and a
//! finished document has nothing left open. So every export a debug
//! test writes is checked as it is built, with no reader; release
//! builds carry none of it.

/// A value [`JsonWriter`] knows how to serialize.
pub trait JsonValue {
    /// Appends `self` to `out` as one JSON token.
    fn write_json(&self, out: &mut String);
}

/// Virtual nanoseconds written as microseconds with exactly three
/// decimals (`1_234_567` → `1234.567`) — the chrome-trace `ts`/`dur`
/// token, by integer math so it never depends on float formatting.
#[derive(Debug, Clone, Copy)]
pub struct Micros(pub u64);

/// An already-serialized JSON value, embedded verbatim.
#[derive(Debug, Clone, Copy)]
pub struct Raw<'a>(pub &'a str);

/// Object members serialized once, by [`Members::render`], for a caller
/// that writes the same keys (and values) into object after object with
/// [`JsonWriter::members`]: one copy each time, no escaping.
#[derive(Debug, Clone)]
pub struct Members {
    json: Box<str>,
    /// Whether they end in a value (not in a key awaiting one).
    need_comma: bool,
}

impl Members {
    /// What `f` writes as members of an object — `"a":1,"b":"x"`, say,
    /// or a last key, `"k":`, whose value the writer's next call after
    /// [`JsonWriter::members`] supplies. At least one key, and every
    /// container `f` opens closed.
    pub fn render(f: impl FnOnce(&mut JsonWriter) -> &mut JsonWriter) -> Members {
        let mut w = JsonWriter::new();
        #[cfg(debug_assertions)]
        w.nesting.push(true);
        f(&mut w);
        #[cfg(debug_assertions)]
        assert_eq!(w.nesting.depth, 1, "JSON members left a container open");
        Members {
            json: w.out.into(),
            need_comma: w.need_comma,
        }
    }
}

/// `"00" "01" … "99"`: two digits per lookup.
const DIGIT_PAIRS: &str = "0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends `v < 100` as exactly two digits.
#[inline(always)]
fn push_2(out: &mut String, v: u32) {
    out.push_str(&DIGIT_PAIRS[v as usize * 2..][..2]);
}

/// Appends `v < 10_000` as exactly four digits.
#[inline(always)]
fn push_4(out: &mut String, v: u32) {
    push_2(out, v / 100);
    push_2(out, v % 100);
}

/// Appends `v < 100_000_000` without leading zeros.
#[inline(always)]
fn push_up_to_8(out: &mut String, v: u32) {
    let (high, low) = (v / 10_000, v % 10_000);
    let lead = if high > 0 { high } else { low };
    if lead >= 1000 {
        push_4(out, lead);
    } else if lead >= 100 {
        out.push((b'0' + (lead / 100) as u8) as char);
        push_2(out, lead % 100);
    } else if lead >= 10 {
        push_2(out, lead);
    } else {
        out.push((b'0' + lead as u8) as char);
    }
    if high > 0 {
        push_4(out, low);
    }
}

/// Appends `v` in decimal, most significant digits first and straight
/// into `out`: every piece is a `str` of the digit table, so there is
/// no scratch buffer to copy from and nothing to validate.
#[inline]
fn push_u64(out: &mut String, v: u64) {
    const E8: u64 = 100_000_000;
    let (high, low) = (v / E8, (v % E8) as u32);
    if high == 0 {
        return push_up_to_8(out, low);
    }
    // `high` < 1.85e11: at most four digits above its own low eight.
    let (top, mid) = ((high / E8) as u32, (high % E8) as u32);
    if top == 0 {
        push_up_to_8(out, mid);
    } else {
        push_up_to_8(out, top);
        push_4(out, mid / 10_000);
        push_4(out, mid % 10_000);
    }
    push_4(out, low / 10_000);
    push_4(out, low % 10_000);
}

/// 1 for the bytes a JSON string must escape: controls, `"`, `\\`.
const ESCAPED: [u8; 256] = {
    let mut t = [0; 256];
    let mut b = 0;
    while b < 0x20 {
        t[b] = 1;
        b += 1;
    }
    t[b'"' as usize] = 1;
    t[b'\\' as usize] = 1;
    t
};

#[inline(always)]
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    // Inlined into a caller that passes a literal, this check folds
    // away and the copy becomes a few fixed-size stores.
    if s.bytes().fold(0, |any, b| any | ESCAPED[b as usize]) == 0 {
        out.push_str(s);
    } else {
        push_escaped(out, s);
    }
    out.push('"');
}

#[cold]
#[inline(never)]
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                out.push(char::from_digit(c as u32 >> 4, 16).expect("< 16"));
                out.push(char::from_digit(c as u32 & 0xf, 16).expect("< 16"));
            }
            c => out.push(c),
        }
    }
}

macro_rules! unsigned_json_value {
    ($($t:ty),*) => {$(
        impl JsonValue for $t {
            #[inline]
            fn write_json(&self, out: &mut String) {
                push_u64(out, *self as u64);
            }
        }
    )*};
}
unsigned_json_value!(u64, u32, usize);

impl JsonValue for i64 {
    fn write_json(&self, out: &mut String) {
        if *self < 0 {
            out.push('-');
        }
        push_u64(out, self.unsigned_abs());
    }
}

impl JsonValue for bool {
    #[inline]
    fn write_json(&self, out: &mut String) {
        out.push(if *self { '1' } else { '0' });
    }
}

impl JsonValue for str {
    #[inline]
    fn write_json(&self, out: &mut String) {
        push_quoted(out, self);
    }
}

impl JsonValue for String {
    fn write_json(&self, out: &mut String) {
        push_quoted(out, self);
    }
}

impl JsonValue for Micros {
    #[inline]
    fn write_json(&self, out: &mut String) {
        let fraction = (self.0 % 1000) as u32;
        push_u64(out, self.0 / 1000);
        out.push('.');
        out.push((b'0' + (fraction / 100) as u8) as char);
        push_2(out, fraction % 100);
    }
}

impl JsonValue for Raw<'_> {
    fn write_json(&self, out: &mut String) {
        out.push_str(self.0);
    }
}

impl<T: JsonValue + ?Sized> JsonValue for &T {
    #[inline]
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// Builds one JSON document front to back. Every method returns the
/// writer so a run of fields chains into one expression.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    need_comma: bool,
    #[cfg(debug_assertions)]
    nesting: Nesting,
}

/// The open containers as a stack of bits, innermost in bit 0
/// (1 = object): 64 levels, far deeper than any export goes.
#[cfg(debug_assertions)]
#[derive(Debug, Default)]
struct Nesting {
    objects: u64,
    depth: u32,
}

#[cfg(debug_assertions)]
impl Nesting {
    fn push(&mut self, object: bool) {
        assert!(self.depth < u64::BITS, "JSON nested deeper than 64");
        self.objects = self.objects << 1 | u64::from(object);
        self.depth += 1;
    }

    fn pop(&mut self, object: bool) {
        assert!(self.depth > 0, "JSON close with nothing open");
        assert_eq!(
            self.in_object(),
            object,
            "JSON close does not match the innermost open container"
        );
        self.objects >>= 1;
        self.depth -= 1;
    }

    fn in_object(&self) -> bool {
        self.depth > 0 && self.objects & 1 == 1
    }
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// An empty writer with `bytes` of output pre-allocated. A caller
    /// that sizes this from its data (see the trace exports) writes the
    /// whole document without the buffer ever growing.
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            out: String::with_capacity(bytes),
            ..JsonWriter::default()
        }
    }

    #[inline]
    fn open(&mut self, c: char) -> &mut Self {
        #[cfg(debug_assertions)]
        self.nesting.push(c == '{');
        if self.need_comma {
            self.out.push(',');
        }
        self.out.push(c);
        self.need_comma = false;
        self
    }

    #[inline]
    fn close(&mut self, c: char) -> &mut Self {
        #[cfg(debug_assertions)]
        self.nesting.pop(c == '}');
        self.out.push(c);
        self.need_comma = true;
        self
    }

    /// Opens an object (as a document root, an array element, or the
    /// value of the preceding [`key`](Self::key)).
    pub fn obj(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost open object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array.
    pub fn arr(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost open array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes `"key":`; the next call supplies the value.
    #[inline(always)]
    pub fn key(&mut self, key: &str) -> &mut Self {
        #[cfg(debug_assertions)]
        assert!(
            self.nesting.in_object(),
            "JSON key {key:?} outside an object"
        );
        if self.need_comma {
            self.out.push(',');
        }
        push_quoted(&mut self.out, key);
        self.out.push(':');
        self.need_comma = false;
        self
    }

    /// Writes one value (an array element, or the value of the
    /// preceding [`key`](Self::key)).
    #[inline]
    pub fn value(&mut self, v: impl JsonValue) -> &mut Self {
        if self.need_comma {
            self.out.push(',');
        }
        v.write_json(&mut self.out);
        self.need_comma = true;
        self
    }

    /// Writes `"key":value`.
    #[inline(always)]
    pub fn field(&mut self, key: &str, v: impl JsonValue) -> &mut Self {
        self.key(key).value(v)
    }

    /// Writes `m` as the next members of the innermost open object.
    #[inline]
    pub fn members(&mut self, m: &Members) -> &mut Self {
        #[cfg(debug_assertions)]
        assert!(self.nesting.in_object(), "JSON members outside an object");
        if self.need_comma {
            self.out.push(',');
        }
        self.out.push_str(&m.json);
        self.need_comma = m.need_comma;
        self
    }

    /// The finished document.
    pub fn finish(self) -> String {
        #[cfg(debug_assertions)]
        assert_eq!(self.nesting.depth, 0, "JSON finished with containers open");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(f: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::new();
        f(&mut w);
        w.finish()
    }

    #[test]
    fn nested_and_empty_containers_place_commas() {
        let got = doc(|w| {
            w.obj().field("a", 1u64).key("e").obj().end_obj();
            w.key("l").arr().value(1u32).arr().end_arr().obj();
            w.field("k", "v").end_obj().value(2usize).end_arr();
            w.key("z").arr().end_arr().end_obj();
        });
        assert_eq!(got, r#"{"a":1,"e":{},"l":[1,[],{"k":"v"},2],"z":[]}"#);
        let empty = doc(|w| {
            w.arr().end_arr();
        });
        assert_eq!(empty, "[]");
    }

    #[test]
    fn integers_and_booleans() {
        let got = doc(|w| {
            w.arr().value(u64::MAX).value(0u64).value(i64::MIN);
            w.value(-1i64).value(true).value(false).end_arr();
        });
        assert_eq!(got, "[18446744073709551615,0,-9223372036854775808,-1,1,0]");
    }

    #[test]
    fn strings_and_keys_are_escaped() {
        let got = doc(|w| {
            w.obj().field("q\"k", "a\"b\\c\n\u{1}\u{1f}é").end_obj();
        });
        assert_eq!(got, r#"{"q\"k":"a\"b\\c\u000a\u0001\u001fé"}"#);
        let plain = doc(|w| {
            w.value("plain");
        });
        assert_eq!(plain, r#""plain""#);
    }

    #[test]
    fn micros_token_has_three_fixed_decimals() {
        let got = doc(|w| {
            w.arr();
            for ns in [0, 999, 1000, 1_234_567] {
                w.value(Micros(ns));
            }
            w.end_arr();
        });
        assert_eq!(got, "[0.000,0.999,1.000,1234.567]");
    }

    #[test]
    fn raw_embeds_verbatim_with_commas_owned_by_the_writer() {
        let inner = doc(|w| {
            w.obj().field("x", 1u64).end_obj();
        });
        let got = doc(|w| {
            w.obj().field("a", Raw(&inner)).key("l").arr();
            w.value(Raw(&inner)).value(Raw("null")).end_arr().end_obj();
        });
        assert_eq!(got, r#"{"a":{"x":1},"l":[{"x":1},null]}"#);
    }

    /// Rendered members write what the calls that rendered them would
    /// have, commas included, and a rendered last key takes the next
    /// value.
    #[test]
    fn rendered_members_write_what_their_calls_would() {
        let head = Members::render(|w| w.field("n", "q\"x").field("i", 7u64));
        let key = Members::render(|w| w.key("k"));
        let got = doc(|w| {
            w.arr().obj().members(&head).field("t", 1u64);
            w.members(&key).value(2u64).end_obj();
            w.obj().members(&key).value(3u64).end_obj().end_arr();
        });
        let want = doc(|w| {
            w.arr()
                .obj()
                .field("n", "q\"x")
                .field("i", 7u64)
                .field("t", 1u64);
            w.key("k").value(2u64).end_obj();
            w.obj().key("k").value(3u64).end_obj().end_arr();
        });
        assert_eq!(got, want);
        assert_eq!(got, r#"[{"n":"q\"x","i":7,"t":1,"k":2},{"k":3}]"#);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "JSON members left a container open")]
    fn members_with_an_open_container_panic_in_debug() {
        Members::render(|w| w.key("l").arr());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "members outside an object")]
    fn members_inside_an_array_panic_in_debug() {
        let m = Members::render(|w| w.field("a", 1u64));
        doc(|w| {
            w.arr().members(&m);
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not match the innermost open container")]
    fn end_arr_closing_an_object_panics_in_debug() {
        doc(|w| {
            w.arr().obj().end_arr();
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not match the innermost open container")]
    fn end_obj_closing_an_array_panics_in_debug() {
        doc(|w| {
            w.obj().key("l").arr().end_obj();
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "close with nothing open")]
    fn closing_with_nothing_open_panics_in_debug() {
        doc(|w| {
            w.obj().end_obj().end_obj();
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside an object")]
    fn a_key_inside_an_array_panics_in_debug() {
        doc(|w| {
            w.obj().key("l").arr().key("k");
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "finished with containers open")]
    fn finishing_with_a_container_open_panics_in_debug() {
        doc(|w| {
            w.obj().key("l").arr().end_arr();
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "nested deeper than 64")]
    fn nesting_past_the_bit_stack_panics_in_debug() {
        doc(|w| {
            for _ in 0..65 {
                w.arr();
            }
        });
    }
}
