//! Offline drop-in replacement for the subset of `serde` this workspace
//! uses. The build environment has no crates.io access, so the workspace
//! resolves `serde` to this path crate.
//!
//! Instead of upstream's visitor-based zero-copy architecture, this shim
//! round-trips everything through one self-describing [`Value`] tree (the
//! same data model `serde_json` exposes). `#[derive(Serialize, Deserialize)]`
//! is provided by the companion `serde_derive` proc-macro and generates
//! `to_value` / `from_value` implementations with serde_json's externally
//! tagged enum representation, so on-disk artifacts look exactly like
//! upstream's JSON output.

#![deny(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing data model (mirrors `serde_json::Value`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer too large for `i64`.
    U64(u64),
    /// Floating point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view as `f64` (accepts every number variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::I64(v) => Some(v as f64),
            Value::U64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I64(v) => Some(v),
            Value::U64(v) => i64::try_from(v).ok(),
            Value::F64(v) if v.fract() == 0.0 && v.abs() < 9.0e18 => Some(v as i64),
            _ => None,
        }
    }

    /// Numeric view as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::I64(v) => u64::try_from(v).ok(),
            Value::U64(v) => Some(v),
            Value::F64(v) if v.fract() == 0.0 && (0.0..1.9e19).contains(&v) => Some(v as u64),
            _ => None,
        }
    }

    /// Object field lookup (`None` on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// Array element lookup.
    pub fn get_index(&self, index: usize) -> Option<&Value> {
        self.as_array().and_then(|a| a.get(index))
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, index: usize) -> &Value {
        self.get_index(index).unwrap_or(&Value::Null)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&Value::Null)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

macro_rules! value_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::I64(v as i64)
            }
        }
    )*};
}
value_from_int!(i8, i16, i32, i64, u8, u16, u32, usize, isize);

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        i64::try_from(v).map(Value::I64).unwrap_or(Value::U64(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::F64(v as f64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Deserialization error (re-exported as `serde_json::Error`).
#[derive(Debug, Clone)]
pub struct DeError {
    msg: String,
}

impl DeError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for DeError {}

/// Serialization into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` to a value tree.
    fn to_value(&self) -> Value;
}

/// Deserialization from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

macro_rules! serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::from(*self)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = v
                    .as_i64()
                    .ok_or_else(|| DeError::new(concat!("expected integer for ", stringify!($t))))?;
                <$t>::try_from(n)
                    .map_err(|_| DeError::new(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )*};
}
serde_int!(i8, i16, i32, i64, u8, u16, u32, usize, isize);

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        Value::from(*self)
    }
}

impl Deserialize for u64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_u64().ok_or_else(|| DeError::new("expected unsigned integer"))
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(f64::NAN), // serde_json renders non-finite floats as null
            _ => v.as_f64().ok_or_else(|| DeError::new("expected number for f64")),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::new("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str().map(str::to_string).ok_or_else(|| DeError::new("expected string"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::new("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Copy + Default, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = v.as_array().ok_or_else(|| DeError::new("expected array"))?;
        if items.len() != N {
            return Err(DeError::new(format!("expected array of length {N}")));
        }
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = T::from_value(item)?;
        }
        Ok(out)
    }
}

macro_rules! tuple_impls {
    ($($len:literal => ($($name:ident . $idx:tt),+)),+) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let items = v.as_array().ok_or_else(|| DeError::new("expected tuple array"))?;
                if items.len() != $len {
                    return Err(DeError::new(concat!("expected ", $len, "-tuple")));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )+};
}
tuple_impls!(
    2 => (A.0, B.1),
    3 => (A.0, B.1, C.2),
    4 => (A.0, B.1, C.2, D.3)
);

impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v.as_str().ok_or_else(|| DeError::new("expected string"))?;
        // A `&'static str` can only come from leaked storage; acceptable for
        // the small constant tables this workspace round-trips.
        Ok(Box::leak(s.to_owned().into_boxed_str()))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

/// Derive-macro support: object field lookup with a good error message.
#[doc(hidden)]
pub fn __field<'v>(obj: &'v [(String, Value)], name: &str, ty: &str) -> Result<&'v Value, DeError> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError::new(format!("missing field `{name}` for {ty}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        let v = Value::Object(vec![
            ("a".into(), Value::I64(3)),
            ("b".into(), Value::Array(vec![Value::Str("x".into())])),
        ]);
        assert_eq!(v["a"].as_i64(), Some(3));
        assert_eq!(v["b"][0], "x");
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(i8::from_value(&(-5i8).to_value()).unwrap(), -5);
        assert_eq!(u64::from_value(&u64::MAX.to_value()).unwrap(), u64::MAX);
        assert_eq!(f32::from_value(&1.25f32.to_value()).unwrap(), 1.25);
        let xs = vec![1i32, -2, 3];
        assert_eq!(Vec::<i32>::from_value(&xs.to_value()).unwrap(), xs);
        let opt: Option<String> = None;
        assert_eq!(Option::<String>::from_value(&opt.to_value()).unwrap(), None);
        let arr = [1.0f64, 2.0];
        assert_eq!(<[f64; 2]>::from_value(&arr.to_value()).unwrap(), arr);
    }
}
