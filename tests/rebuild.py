"""`rebuild(record, **changes)`: a copy of a `Record` with some fields
changed, built by its class's constructor from the fields that
`__match_args__` names, as `dataclasses.replace` does for a dataclass.
The tests rebuild models with it; pytest does not collect this module."""


def rebuild(record, **changes):
    fields = {name: getattr(record, name) for name in record.__match_args__}
    return type(record)(**{**fields, **changes})
