//! Offline stand-in for `serde`, serialization only: a [`Serialize`]
//! trait rendering into a JSON [`Value`] tree, plus the derive macro
//! re-export. Nothing in the workspace deserializes.

pub use serde_derive::Serialize;

/// A JSON value tree (the serialization target).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point (non-finite values render as `null`).
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Value)>),
}

/// Types renderable into a JSON [`Value`].
pub trait Serialize {
    /// Renders `self` as a JSON value tree.
    fn to_value(&self) -> Value;
}

macro_rules! impl_ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
    )*};
}
impl_ser_int!(i8, i16, i32, i64, isize);

macro_rules! impl_ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
    )*};
}
impl_ser_uint!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_ser_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Arr(vec![$(self.$idx.to_value()),+])
            }
        }
    )*};
}
impl_ser_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_render() {
        assert_eq!(3usize.to_value(), Value::UInt(3));
        assert_eq!((-2i64).to_value(), Value::Int(-2));
        assert_eq!(1.5f64.to_value(), Value::Float(1.5));
        assert_eq!("hi".to_value(), Value::Str("hi".into()));
        assert_eq!(true.to_value(), Value::Bool(true));
    }

    #[test]
    fn containers_render() {
        assert_eq!(
            vec![1u32, 2].to_value(),
            Value::Arr(vec![Value::UInt(1), Value::UInt(2)])
        );
        assert_eq!(
            (1usize, 2usize).to_value(),
            Value::Arr(vec![Value::UInt(1), Value::UInt(2)])
        );
        assert_eq!(None::<u8>.to_value(), Value::Null);
    }
}
