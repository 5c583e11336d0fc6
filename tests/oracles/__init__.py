"""Reference implementations kept for differential tests only.

Production code never imports these: each module holds a slower, simpler
formulation of a shipped kernel that the tests pin the kernel against.
"""
