"""A JSON Schema validator for the keywords softalign's report schema uses.

Supports ``$ref`` into ``$defs``, ``type``, ``const``, ``enum``,
``properties``, ``required``, ``additionalProperties``, ``items``,
``minItems``/``maxItems``, ``minimum``/``maximum``/``exclusiveMinimum``,
``allOf`` and ``if``/``then``.  A schema that uses any other validation
keyword is rejected outright, so a schema change cannot pass unchecked.
"""

from __future__ import annotations

import numbers

ANNOTATIONS = {"$schema", "$id", "$defs", "title", "description"}
KEYWORDS = {
    "$ref", "type", "const", "enum", "properties", "required",
    "additionalProperties", "items", "minItems", "maxItems", "minimum",
    "maximum", "exclusiveMinimum", "allOf", "if", "then",
}


def _is_type(value, name: str) -> bool:
    if name == "object":
        return isinstance(value, dict)
    if name == "array":
        return isinstance(value, list)
    if name == "string":
        return isinstance(value, str)
    if name == "boolean":
        return isinstance(value, bool)
    if name == "null":
        return value is None
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    if name == "number":
        return True
    if name == "integer":
        return float(value).is_integer()
    raise ValueError(f"unknown type {name!r}")


def errors(instance, schema: dict, root: dict | None = None, path: str = "$") -> list[str]:
    """Every violation of ``schema`` by ``instance``, as readable strings."""
    root = schema if root is None else root
    unknown = set(schema) - KEYWORDS - ANNOTATIONS
    if unknown:
        raise ValueError(f"unsupported schema keywords at {path}: {sorted(unknown)}")
    out: list[str] = []
    if "$ref" in schema:
        ref = schema["$ref"]
        if not ref.startswith("#/$defs/"):
            raise ValueError(f"unsupported $ref {ref!r}")
        out += errors(instance, root["$defs"][ref[len("#/$defs/"):]], root, path)
    if "type" in schema:
        names = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_is_type(instance, n) for n in names):
            return out + [f"{path}: expected {schema['type']}, got {type(instance).__name__}"]
    if "const" in schema and instance != schema["const"]:
        out.append(f"{path}: expected {schema['const']!r}")
    if "enum" in schema and instance not in schema["enum"]:
        out.append(f"{path}: {instance!r} not in {schema['enum']}")
    if isinstance(instance, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in instance:
                out.append(f"{path}: missing {key!r}")
        for key, value in instance.items():
            if key in props:
                out += errors(value, props[key], root, f"{path}.{key}")
            elif schema.get("additionalProperties") is False:
                out.append(f"{path}: unexpected key {key!r}")
            elif isinstance(schema.get("additionalProperties"), dict):
                out += errors(value, schema["additionalProperties"], root, f"{path}.{key}")
    if isinstance(instance, list):
        if len(instance) < schema.get("minItems", 0):
            out.append(f"{path}: fewer than {schema['minItems']} items")
        if "maxItems" in schema and len(instance) > schema["maxItems"]:
            out.append(f"{path}: more than {schema['maxItems']} items")
        if "items" in schema:
            for i, item in enumerate(instance):
                out += errors(item, schema["items"], root, f"{path}[{i}]")
    if _is_type(instance, "number"):
        if "minimum" in schema and instance < schema["minimum"]:
            out.append(f"{path}: {instance} < minimum {schema['minimum']}")
        if "maximum" in schema and instance > schema["maximum"]:
            out.append(f"{path}: {instance} > maximum {schema['maximum']}")
        if "exclusiveMinimum" in schema and instance <= schema["exclusiveMinimum"]:
            out.append(f"{path}: {instance} <= exclusiveMinimum {schema['exclusiveMinimum']}")
    for sub in schema.get("allOf", []):
        out += errors(instance, sub, root, path)
    if "if" in schema and not errors(instance, schema["if"], root, path):
        out += errors(instance, schema.get("then", {}), root, path)
    return out
