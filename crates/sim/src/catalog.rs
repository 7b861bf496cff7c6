//! Closed enum catalogs with stable names: the [`catalog!`](crate::catalog) macro.

/// Declares a closed catalog: a fieldless enum plus `ALL` (every
/// variant, in declaration order), a stable snake_case `name()` per
/// variant, and its inverse `from_name()`.
///
/// Each variant is written `Variant => "name",`, so a new variant
/// cannot be left out of `ALL` or ship without a name. The enum's own
/// attributes pass through unchanged and must derive `Clone` and
/// `Copy`.
///
/// ```
/// maeri_sim::catalog! {
///     /// Traffic-light states.
///     #[derive(Debug, Clone, Copy, PartialEq, Eq)]
///     pub enum Light {
///         /// Stop.
///         Red => "red",
///         /// Go.
///         Green => "green",
///     }
/// }
///
/// assert_eq!(Light::ALL, [Light::Red, Light::Green]);
/// assert_eq!(Light::Green.name(), "green");
/// assert_eq!(Light::from_name("red"), Some(Light::Red));
/// assert_eq!(Light::from_name("amber"), None);
/// ```
#[macro_export]
macro_rules! catalog {
    (
        $(#[$attr:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vattr:meta])* $variant:ident => $label:literal,)+
        }
    ) => {
        $(#[$attr])*
        $vis enum $name {
            $($(#[$vattr])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: [$name; [$(stringify!($variant)),+].len()] = [$($name::$variant),+];

            /// The variant's stable snake_case name.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }

            /// Parses a [`name`](Self::name) back into its variant.
            #[must_use]
            pub fn from_name(name: &str) -> Option<$name> {
                $name::ALL.into_iter().find(|v| v.name() == name)
            }
        }
    };
}
