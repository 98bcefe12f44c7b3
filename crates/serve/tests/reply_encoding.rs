//! The reply encoder against its reference: `Value::encode` and
//! `Value::encode_into` copy unescaped string runs whole and print
//! integral numbers below 2^53 through integer formatting; the writer
//! under `support/` pushes strings character by character and prints
//! every number through `{x}`. Over random trees — integers near ±2^53,
//! `-0`, `5e-324`, `1e21`, `1e300`, NaN and the infinities (all three
//! `null`), control characters, quotes, backslashes, non-ASCII text and
//! nesting — both must write the same bytes, and `encode_into` must
//! append exactly those bytes to whatever the buffer already holds.

#[path = "support/json_reference.rs"]
mod json_reference;

use proptest::prelude::*;
use ref_serve::Value;

/// A SplitMix64 stream: one case's whole tree from one seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const TWO_53: f64 = 9_007_199_254_740_992.0;

/// Numbers where integer and float formatting could part ways.
const NUMBERS: [f64; 24] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    TWO_53 - 1.0,
    -(TWO_53 - 1.0),
    TWO_53,
    -TWO_53,
    TWO_53 + 2.0,
    -(TWO_53 + 2.0),
    4_503_599_627_370_495.5,
    1e15,
    1e16,
    1e21,
    1e22,
    1e300,
    5e-324,
    -5e-324,
    0.1,
    1.0 / 3.0,
    f64::MAX,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Characters the string escaper treats differently.
const CHARS: [char; 20] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}',
    '\u{1f}', '\u{7f}', 'é', '数', '🦀', '\u{2028}',
];

fn number(g: &mut Gen) -> f64 {
    match g.below(5) {
        0 => NUMBERS[g.below(NUMBERS.len())],
        // An integer around ±2^53 or well below it.
        1 => {
            let near = [TWO_53, 1e6, 1e12][g.below(3)];
            let x = near + g.below(9) as f64 - 4.0;
            if g.below(2) == 0 {
                -x
            } else {
                x
            }
        }
        2 => (g.next() >> (g.below(64) as u32)) as f64,
        3 => g.below(1000) as f64 / 8.0,
        // Any bits at all: subnormals, NaN payloads, huge exponents.
        _ => f64::from_bits(g.next()),
    }
}

fn string(g: &mut Gen) -> String {
    (0..g.below(12))
        .map(|_| {
            if g.below(3) == 0 {
                CHARS[g.below(CHARS.len())]
            } else {
                char::from(b'a' + g.below(26) as u8)
            }
        })
        .collect()
}

fn tree(g: &mut Gen, depth: usize) -> Value {
    match g.below(if depth == 0 { 4 } else { 6 }) {
        0 => [Value::Null, Value::Bool(true), Value::Bool(false)][g.below(3)].clone(),
        1 | 2 => Value::Num(number(g)),
        3 => Value::Str(string(g)),
        4 => Value::Arr((0..g.below(5)).map(|_| tree(g, depth - 1)).collect()),
        _ => Value::Obj(
            (0..g.below(5))
                .map(|_| (string(g), tree(g, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    #[test]
    fn replies_encode_to_the_reference_bytes(seed in 0u64..=u64::MAX) {
        let mut g = Gen(seed);
        let value = tree(&mut g, 4);
        let expected = json_reference::encode(&value);
        prop_assert_eq!(value.encode(), expected.clone(), "{:?}", value);
        let mut buf = String::from("{\"ok\":");
        value.encode_into(&mut buf);
        prop_assert_eq!(&buf[6..], expected.as_str(), "{:?}", value);
        prop_assert_eq!(value.to_string(), expected);
    }
}

/// Every integral number from -2^53 - 64 to -2^53 + 64, the same around
/// +2^53 and around zero, and every power of ten a double holds: the
/// integer path prints what `{x}` prints, and hands over to it exactly
/// at 2^53.
#[test]
fn integral_numbers_print_as_the_float_formatter_prints_them() {
    let around = |centre: f64| (-64..=64).map(move |k| centre + f64::from(k));
    let numbers = around(0.0)
        .chain(around(TWO_53))
        .chain(around(-TWO_53))
        .chain((0..=308).map(|e| 10f64.powi(e)))
        .chain([-0.0, 0.5, -0.5]);
    for x in numbers {
        let value = Value::Num(x);
        assert_eq!(value.encode(), json_reference::encode(&value), "{x:e}");
    }
}
