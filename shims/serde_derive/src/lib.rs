//! `#[derive(Serialize, Deserialize)]` for the offline `serde` shim.
//!
//! The build environment has no crates.io access, so `syn`/`quote` are not
//! available; this macro parses the item's token stream by hand. Supported
//! shapes — which cover every derive in this workspace — are:
//!
//! * structs with named fields (plus `#[serde(skip)]` / `#[serde(skip, default)]`),
//! * enums with unit, tuple, and struct variants (externally tagged, like
//!   upstream serde's default JSON representation).
//!
//! Anything else (generics, tuple structs, other `#[serde]` attributes)
//! panics with a clear message at expansion time rather than silently
//! producing wrong code.

#![deny(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    skip: bool,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum Item {
    Struct { name: String, fields: Vec<Field> },
    Enum { name: String, variants: Vec<Variant> },
}

/// Skips one attribute (`#[...]`) if present at `i`; returns whether the
/// attribute was a `#[serde(...)]` containing `skip`.
fn skip_attr(tokens: &[TokenTree], i: &mut usize) -> Option<bool> {
    match tokens.get(*i) {
        Some(TokenTree::Punct(p)) if p.as_char() == '#' => {}
        _ => return None,
    }
    let group = match tokens.get(*i + 1) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => g,
        _ => return None,
    };
    *i += 2;
    let inner: Vec<TokenTree> = group.stream().into_iter().collect();
    let is_serde =
        matches!(&inner.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde");
    if !is_serde {
        return Some(false);
    }
    let args = match inner.get(1) {
        Some(TokenTree::Group(g)) => g.stream(),
        _ => return Some(false),
    };
    let mut skip = false;
    for t in args {
        if let TokenTree::Ident(id) = &t {
            match id.to_string().as_str() {
                "skip" => skip = true,
                "default" => {}
                other => panic!("serde shim derive: unsupported #[serde({other})] attribute"),
            }
        }
    }
    Some(skip)
}

/// Skips `pub`, `pub(crate)`, `pub(super)` etc. at `i`.
fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Parses `name: Type, name: Type, ...` (named-struct or struct-variant body).
fn parse_fields(body: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut skip = false;
        while let Some(s) = skip_attr(&tokens, &mut i) {
            skip |= s;
        }
        if i >= tokens.len() {
            break;
        }
        skip_visibility(&tokens, &mut i);
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim derive: expected field name, found `{other}`"),
        };
        i += 1;
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => panic!("serde shim derive: expected `:` after field `{name}`, found `{other}` (tuple structs are unsupported)"),
        }
        // Consume the type: everything until a comma at angle-bracket depth 0.
        let mut angle_depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field { name, skip });
    }
    fields
}

/// Counts the comma-separated types of a tuple-variant payload.
fn tuple_arity(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut arity = 1;
    let mut angle_depth = 0i32;
    let mut trailing_comma = false;
    for t in &tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    arity += 1;
                    trailing_comma = true;
                    continue;
                }
                _ => {}
            }
        }
        trailing_comma = false;
    }
    if trailing_comma {
        arity -= 1;
    }
    arity
}

fn parse_variants(body: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while skip_attr(&tokens, &mut i).is_some() {}
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim derive: expected variant name, found `{other}`"),
        };
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(tuple_arity(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        // Skip an explicit discriminant (`Name = expr`); serialization is by
        // variant name, so the value itself is irrelevant here.
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            i += 1;
            while i < tokens.len()
                && !matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == ',')
            {
                i += 1;
            }
        }
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            None => {}
            Some(other) => {
                panic!("serde shim derive: unexpected `{other}` after variant `{name}`")
            }
        }
        variants.push(Variant { name, kind });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    loop {
        while skip_attr(&tokens, &mut i).is_some() {}
        skip_visibility(&tokens, &mut i);
        match tokens.get(i) {
            Some(TokenTree::Ident(id))
                if id.to_string() == "struct" || id.to_string() == "enum" =>
            {
                break
            }
            Some(_) => i += 1,
            None => panic!("serde shim derive: no struct/enum found"),
        }
    }
    let is_struct = matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "struct");
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim derive: expected item name, found `{other}`"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic type `{name}` is unsupported");
    }
    let body = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => panic!(
            "serde shim derive: `{name}` has no braced body (tuple/unit structs are unsupported)"
        ),
    };
    if is_struct {
        Item::Struct { name, fields: parse_fields(body) }
    } else {
        Item::Enum { name, variants: parse_variants(body) }
    }
}

fn serialize_impl(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let mut pushes = String::new();
            for f in fields.iter().filter(|f| !f.skip) {
                pushes.push_str(&format!(
                    "__fields.push((::std::string::String::from(\"{n}\"), \
                     ::serde::Serialize::to_value(&self.{n})));\n",
                    n = f.name
                ));
            }
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{\n\
                 let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                 ::std::vec::Vec::new();\n{pushes}\
                 ::serde::Value::Object(__fields)\n}}\n}}\n"
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "Self::{vn} => ::serde::Value::Str(::std::string::String::from(\"{vn}\")),\n"
                    )),
                    VariantKind::Tuple(1) => arms.push_str(&format!(
                        "Self::{vn}(__f0) => ::serde::Value::Object(vec![\
                         (::std::string::String::from(\"{vn}\"), \
                         ::serde::Serialize::to_value(__f0))]),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        let items: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "Self::{vn}({}) => ::serde::Value::Object(vec![\
                             (::std::string::String::from(\"{vn}\"), \
                             ::serde::Value::Array(vec![{}]))]),\n",
                            binds.join(", "),
                            items.join(", ")
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
                        let binds: Vec<String> =
                            live.iter().map(|f| f.name.clone()).collect();
                        let mut pushes = String::new();
                        for f in &live {
                            pushes.push_str(&format!(
                                "__fields.push((::std::string::String::from(\"{n}\"), \
                                 ::serde::Serialize::to_value({n})));\n",
                                n = f.name
                            ));
                        }
                        let pattern = if binds.is_empty() {
                            "..".to_string()
                        } else {
                            format!("{}, ..", binds.join(", "))
                        };
                        arms.push_str(&format!(
                            "Self::{vn} {{ {pattern} }} => {{\n\
                             let mut __fields: ::std::vec::Vec<(::std::string::String, \
                             ::serde::Value)> = ::std::vec::Vec::new();\n{pushes}\
                             ::serde::Value::Object(vec![(::std::string::String::from(\"{vn}\"), \
                             ::serde::Value::Object(__fields))])\n}}\n",
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{\n\
                 #[allow(unused_variables)]\nmatch self {{\n{arms}}}\n}}\n}}\n"
            )
        }
    }
}

fn struct_body_ctor(ty: &str, fields: &[Field], obj_expr: &str) -> String {
    let mut inits = String::new();
    for f in fields {
        if f.skip {
            inits.push_str(&format!("{}: ::std::default::Default::default(),\n", f.name));
        } else {
            inits.push_str(&format!(
                "{n}: ::serde::Deserialize::from_value(::serde::__field({obj_expr}, \"{n}\", \
                 \"{ty}\")?)?,\n",
                n = f.name
            ));
        }
    }
    inits
}

fn deserialize_impl(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let inits = struct_body_ctor(name, fields, "__obj");
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 let __obj = match __v {{\n\
                 ::serde::Value::Object(o) => o.as_slice(),\n\
                 _ => return ::std::result::Result::Err(::serde::DeError::new(\"expected object for {name}\")),\n\
                 }};\n\
                 ::std::result::Result::Ok(Self {{\n{inits}}})\n}}\n}}\n"
            )
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => unit_arms
                        .push_str(&format!("\"{vn}\" => ::std::result::Result::Ok(Self::{vn}),\n")),
                    VariantKind::Tuple(1) => tagged_arms.push_str(&format!(
                        "\"{vn}\" => ::std::result::Result::Ok(Self::{vn}(\
                         ::serde::Deserialize::from_value(__payload)?)),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let gets: Vec<String> = (0..*n)
                            .map(|k| format!("::serde::Deserialize::from_value(&__items[{k}])?"))
                            .collect();
                        tagged_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                             let __items = __payload.as_array().ok_or_else(|| \
                             ::serde::DeError::new(\"expected array payload for {name}::{vn}\"))?;\n\
                             if __items.len() != {n} {{\n\
                             return ::std::result::Result::Err(::serde::DeError::new(\
                             \"wrong arity for {name}::{vn}\"));\n}}\n\
                             ::std::result::Result::Ok(Self::{vn}({}))\n}}\n",
                            gets.join(", ")
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let inits = struct_body_ctor(&format!("{name}::{vn}"), fields, "__obj");
                        tagged_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                             let __obj = match __payload {{\n\
                             ::serde::Value::Object(o) => o.as_slice(),\n\
                             _ => return ::std::result::Result::Err(::serde::DeError::new(\
                             \"expected object payload for {name}::{vn}\")),\n}};\n\
                             ::std::result::Result::Ok(Self::{vn} {{\n{inits}}})\n}}\n"
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 match __v {{\n\
                 ::serde::Value::Str(__s) => match __s.as_str() {{\n{unit_arms}\
                 __other => ::std::result::Result::Err(::serde::DeError::new(\
                 format!(\"unknown variant `{{__other}}` for {name}\"))),\n}},\n\
                 ::serde::Value::Object(__o) if __o.len() == 1 => {{\n\
                 let (__tag, __payload) = &__o[0];\n\
                 match __tag.as_str() {{\n{tagged_arms}\
                 __other => ::std::result::Result::Err(::serde::DeError::new(\
                 format!(\"unknown variant `{{__other}}` for {name}\"))),\n}}\n}}\n\
                 _ => ::std::result::Result::Err(::serde::DeError::new(\
                 \"expected string or single-key object for {name}\")),\n}}\n}}\n}}\n"
            )
        }
    }
}

/// Derives `serde::Serialize` (value-tree flavour).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    serialize_impl(&item).parse().expect("serde shim derive: generated invalid Serialize impl")
}

/// Derives `serde::Deserialize` (value-tree flavour).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    deserialize_impl(&item).parse().expect("serde shim derive: generated invalid Deserialize impl")
}
